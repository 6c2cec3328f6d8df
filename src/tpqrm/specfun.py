"""Special functions with pinned conventions.

Associated Legendre functions are defined WITHOUT the Condon-Shortley
phase,

    P_l^k(x) = (1-x^2)^(k/2) d^k/dx^k P_l(x),   k >= 0,

so P_1^1(x) = +sqrt(1-x^2).  Negative order and degree are resolved by

    P_l^(-k) = (-1)^k (l-k)!/(l+k)! P_l^k,
    P_(-l-1)^k = P_l^k,        P_l^k = 0 for k > l >= 0,

which is the unique combination under which the squeeze-operator matrix
elements below are transpose-consistent and the manifold coupling
vanishes at the critical point as the effective frequency goes to zero.

Squeeze-operator matrix elements in the even Fock sector, with
S(s) = exp[(s/2)(a'^2 - a^2)] and beta = 1/cosh(2*theta):

    <2m|S(+2 theta)|2n> =            sqrt(beta) sqrt((2n)!/(2m)!) P_(m+n)^(m-n)(beta)
    <2m|S(-2 theta)|2n> = (-1)^(m-n) sqrt(beta) sqrt((2n)!/(2m)!) P_(m+n)^(m-n)(beta)

Factorial ratios and high-degree Legendre values overflow doubles well
inside the ranges used here ((2m)! at m >= 86, (2k-1)!! at k ~ 150), so
everything is evaluated in log space: the upward degree recurrence
carries a renormalization shift for each order (legendre_log_table runs
one order, squeeze_matrix all orders of a matrix in one sweep), and
magnitudes are only exponentiated after all log factors have been
combined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

_RESCALE = 1e250
_LOG_RESCALE = math.log(_RESCALE)

_LOG2 = math.log(2.0)


def log_double_factorial(n: int) -> float:
    """log(n!!) for n >= -1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for n={n} < -1")
    if n <= 1:
        return 0.0
    if n % 2 == 0:
        m = n // 2
        return m * _LOG2 + math.lgamma(m + 1)
    m = (n - 1) // 2
    return math.lgamma(n + 1) - m * _LOG2 - math.lgamma(m + 1)


def legendre_log_table(
    k: int, l_max: int, x: float, one_minus_x2: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(sign, log|P|) of P_l^k(x) for all degrees l = 0..l_max at fixed order k.

    x must lie in [0, 1].  Entries with |k| > l are (0, -inf).  Negative
    k is resolved through the pinned negative-order relation.  The
    (1-x^2)^(k/2) seed is taken from one_minus_x2 when given: near
    x = 1 a caller that knows 1 - x^2 directly keeps the digits that
    x itself has lost.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"legendre argument x={x} outside [0, 1]")
    if one_minus_x2 is None:
        one_minus_x2 = (1.0 - x) * (1.0 + x)
    if k < 0:
        signs, logs = legendre_log_table(-k, l_max, x, one_minus_x2)
        ls = np.arange(l_max + 1, dtype=float)
        with np.errstate(invalid="ignore"):
            ratio = gammaln(ls + k + 1) - gammaln(ls - k + 1)
        ratio[: min(-k, l_max + 1)] = -np.inf  # l < -k: zero stays zero
        return signs * (-1.0) ** k, logs + ratio

    signs = np.zeros(l_max + 1)
    logs = np.full(l_max + 1, -np.inf)
    if k > l_max:
        return signs, logs

    if one_minus_x2 == 0.0:
        # (1-x^2)^(k/2) kills every k > 0; P_l(1) = 1
        if k == 0:
            signs[:] = 1.0
            logs[:] = 0.0
        return signs, logs

    log_seed = log_double_factorial(2 * k - 1) + 0.5 * k * math.log(one_minus_x2)
    signs[k] = 1.0
    logs[k] = log_seed
    if k == l_max:
        return signs, logs

    # upward degree recurrence at fixed order, renormalized against the seed
    p_prev = 1.0
    p_cur = x * (2 * k + 1)
    shift = 0.0
    signs[k + 1] = math.copysign(1.0, p_cur) if p_cur != 0.0 else 0.0
    logs[k + 1] = (math.log(abs(p_cur)) + log_seed) if p_cur != 0.0 else -np.inf
    for ell in range(k + 2, l_max + 1):
        p_next = ((2 * ell - 1) * x * p_cur - (ell + k - 1) * p_prev) / (ell - k)
        p_prev, p_cur = p_cur, p_next
        mag = max(abs(p_cur), abs(p_prev))
        if mag > _RESCALE:
            p_cur /= _RESCALE
            p_prev /= _RESCALE
            shift += _LOG_RESCALE
        if p_cur != 0.0:
            signs[ell] = math.copysign(1.0, p_cur)
            logs[ell] = math.log(abs(p_cur)) + shift + log_seed
    return signs, logs


def legendre_pk_log(
    l: int, k: int, x: float, one_minus_x2: float | None = None
) -> tuple[float, float]:
    """(sign, log|P_l^k(x)|) for any integer degree and order, x in [0, 1]."""
    if l < 0:
        l = -l - 1
    signs, logs = legendre_log_table(k, l, x, one_minus_x2)
    return float(signs[l]), float(logs[l])


def squeeze_term(m: int, n: int, shift: int, beta: float, tanh2: float) -> float:
    """sqrt(beta (2n)!/(2m)!) P_(m+n+shift)^(m-n-shift)(beta), assembled in log space.

    tanh2 = tanh^2(2 theta) = 1 - beta^2 seeds the Legendre table; at
    small theta beta rounds to 1 and 1 - beta^2 from beta keeps no digit.
    """
    sign, log_p = legendre_pk_log(m + n + shift, m - n - shift, beta, tanh2)
    if sign == 0.0:
        return 0.0
    log_fac = 0.5 * (gammaln(2 * n + 1) - gammaln(2 * m + 1))
    return sign * math.exp(0.5 * math.log(beta) + log_fac + log_p)


def squeeze_element(m: int, n: int, theta: float, sign: int = +1) -> float:
    """<2m|S(sign * 2 theta)|2n> with S(s) = exp[(s/2)(a'^2 - a^2)]."""
    if m < 0 or n < 0:
        raise ValueError("Fock manifold indices must be >= 0")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    s_eff = sign if theta >= 0.0 else -sign
    beta = 1.0 / math.cosh(2.0 * theta)
    tanh2 = math.tanh(2.0 * theta) ** 2
    if tanh2 == 0.0:
        return float(m == n)  # S(0) is the identity; its zeros stay +0.0 for either sign
    value = squeeze_term(m, n, 0, beta, tanh2)
    return (-1.0) ** (m - n) * value if s_eff == -1 else value


@dataclass(frozen=True)
class SqueezeMatrix:
    """Dense <2m|S(sign*2 theta)|2n> block, m, n = 0..n_max-1."""

    theta: float
    n_max: int
    sign: int
    entries: np.ndarray


def squeeze_matrix(theta: float, n_max: int, sign: int = +1) -> SqueezeMatrix:
    """Matrix of squeeze elements in the even Fock sector.

    One upward sweep over the degree l advances the Legendre recurrence
    of every order k = m - n still needed as one vector, each from its
    seed at l = k with its own renormalization shift, and writes the
    entries with m + n = l as it passes; each order sees the operations
    of its own legendre_log_table, so the result is bitwise that
    per-order assembly.  The lower triangle (m >= n) is evaluated; the
    upper one is <2n|S(2t)|2m> = (-1)^(m-n) <2m|S(2t)|2n>, so
    entries(S(2t)) == entries(S(-2t)).T bit-exactly.  theta = 0 gives
    the identity.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    s_eff = sign if theta >= 0.0 else -sign
    beta = 1.0 / math.cosh(2.0 * theta)
    tanh2 = math.tanh(2.0 * theta) ** 2
    if tanh2 == 0.0:
        return SqueezeMatrix(theta=theta, n_max=n_max, sign=sign, entries=np.eye(n_max))

    orders = np.arange(n_max)
    log_fact = gammaln(2.0 * orders + 1.0)
    log_seed = np.array([log_double_factorial(2 * k - 1) + 0.5 * k * math.log(tanh2)
                         for k in range(n_max)])
    half_log_beta = 0.5 * math.log(beta)
    p_prev = np.zeros(n_max)  # P_(k-1)^k = 0 relative to the seed
    p_cur = np.ones(n_max)  # P_k^k = seed
    shift = np.zeros(n_max)
    entries = np.empty((n_max, n_max))
    for ell in range(2 * n_max - 1):
        top = min(ell, 2 * n_max - 2 - ell)  # orders still needed at this degree
        step = slice(0, min(ell - 1, top) + 1)  # order ell is only seeded
        k = orders[step]
        p_next = ((2 * ell - 1) * beta * p_cur[step] - (ell + k - 1) * p_prev[step]) / (ell - k)
        p_prev[step] = p_cur[step]
        p_cur[step] = p_next
        big = np.nonzero(np.maximum(np.abs(p_cur[step]), np.abs(p_prev[step])) > _RESCALE)[0]
        if big.size:
            p_cur[big] /= _RESCALE
            p_prev[big] /= _RESCALE
            shift[big] += _LOG_RESCALE

        write = slice(ell % 2, top + 1, 2)  # m + n = ell needs k = m - n of ell's parity
        k = orders[write]
        n, m = (ell - k) // 2, (ell + k) // 2
        p = p_cur[write]
        # math.log as in legendre_log_table: np.log differs from it in the last bit at times
        log_p = np.array([math.log(v) if v else -math.inf for v in np.abs(p).tolist()])
        log_p += shift[write]
        log_p += log_seed[write]
        vals = np.sign(p) * np.exp(half_log_beta + 0.5 * (log_fact[n] - log_fact[m]) + log_p)
        mirrored = np.where(k % 2 == 1, -1.0, 1.0) * vals
        entries[m, n], entries[n, m] = (vals, mirrored) if s_eff == 1 else (mirrored, vals)
    return SqueezeMatrix(theta=theta, n_max=n_max, sign=sign, entries=entries)
