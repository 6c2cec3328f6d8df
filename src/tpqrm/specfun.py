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
everything is evaluated in log space: the degree recurrence runs at
fixed order with dynamic renormalization, and magnitudes are only
exponentiated after all log factors have been combined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

_RESCALE = 1e250
_LOG_RESCALE = math.log(_RESCALE)

_LOG2 = math.log(2.0)


def double_factorial(n: int):
    """n!! with the conventions (-1)!! = 0!! = 1.

    Exact integer arithmetic up to n = 30, log-gamma accumulation above
    (values are then floats, exact only to double precision).
    """
    if n < -1:
        raise ValueError(f"double factorial undefined for n={n} < -1")
    if n <= 30:
        result = 1
        k = n
        while k > 1:
            result *= k
            k -= 2
        return result
    return math.exp(log_double_factorial(n))


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


def legendre_pk(l: int, k: int, x: float) -> float:
    """P_l^k(x) under the pinned conventions (may overflow to inf for huge values)."""
    sign, log_abs = legendre_pk_log(l, k, x)
    if sign == 0.0:
        return 0.0
    return sign * math.exp(log_abs)


def legendre_smallbeta(l: int, k: int, beta: float) -> float:
    """Leading small-argument form of P_l^k(beta), error O(beta^4).

    Valid for l - k even and >= 0 (the only case arising in the even
    photon sector); other index combinations are rejected.
    """
    if l < 0:
        l = -l - 1
    if (l - k) % 2 != 0 or l - k < 0:
        raise ValueError(f"small-beta expansion needs l-k even and >= 0, got l={l}, k={k}")
    if not 0.0 <= beta <= 0.3:
        raise ValueError(f"small-beta expansion restricted to beta in [0, 0.3], got {beta}")
    if abs(k) > l:
        return 0.0
    # (l+k-1)!! (-1)^((l-k)/2) / (l-k)!!, in log space for large indices
    log_mag = log_double_factorial(l + k - 1) - log_double_factorial(l - k)
    sign = (-1.0) ** ((l - k) // 2)
    envelope = (1.0 - beta * beta) ** (k / 2.0)
    correction = 1.0 - (l + k + 1) * (l - k) / 2.0 * beta * beta
    return correction * sign * math.exp(log_mag) * envelope


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

    The lower triangle (m >= n) is evaluated directly; the upper one is
    filled through <2n|S(2t)|2m> = (-1)^(m-n) <2m|S(2t)|2n>, so the
    transpose identity entries(S(2t)) == entries(S(-2t)).T holds
    bit-exactly.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    s_eff = sign if theta >= 0.0 else -sign
    beta = 1.0 / math.cosh(2.0 * theta)
    tanh2 = math.tanh(2.0 * theta) ** 2

    plus = np.zeros((n_max, n_max))
    l_max = 2 * n_max - 2
    ns_all = np.arange(n_max)
    log_fact = gammaln(2.0 * ns_all + 1.0)
    for d in range(n_max):  # diagonal m - n = d >= 0: squeeze_term from one order-d table
        ns = ns_all[: n_max - d]
        ms = ns + d
        signs, logs = legendre_log_table(d, l_max, beta, tanh2)
        log_total = 0.5 * math.log(beta) + 0.5 * (log_fact[ns] - log_fact[ms]) + logs[ms + ns]
        vals = signs[ms + ns] * np.exp(log_total)
        plus[ms, ns] = vals
        if d > 0:
            plus[ns, ms] = (-1.0) ** d * vals

    if s_eff == -1:
        mm, nn = np.meshgrid(ns_all, ns_all, indexing="ij")
        plus = plus * (-1.0) ** (mm - nn)
    return SqueezeMatrix(theta=theta, n_max=n_max, sign=sign, entries=plus)
