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
everything is evaluated in log space.  The upward degree recurrence
only stores: each renormalized value and how far its order has been
renormalized (legendre_log_table runs one order and keeps the float
shift; squeeze_matrix runs all orders of a matrix in one sweep and keeps
an integer count of rescales, whose shift it reads from a table built by
the same float additions).  The logs of what it stored are then taken
in one vectorized np.log pass, the same in both routes, and magnitudes
are only exponentiated after all log factors have been combined.

theta is rejected by name where it is not finite or cosh(2 theta)
overflows a double.

The per-element Legendre forms of S and M are the tests' oracle
(tests/oracles.py); legendre_log_table and squeeze_element stay here
because perfbench's tracer binds both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .model import check_count, check_finite, check_parity

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

    if k > l_max or one_minus_x2 == 0.0:
        # P_l^k = 0 for k > l; at x = 1, (1-x^2)^(k/2) kills every k > 0 and P_l(1) = 1
        if k == 0:
            return np.ones(l_max + 1), np.zeros(l_max + 1)
        return np.zeros(l_max + 1), np.full(l_max + 1, -np.inf)

    log_seed = log_double_factorial(2 * k - 1) + 0.5 * k * math.log(one_minus_x2)
    # upward degree recurrence at fixed order, renormalized against the seed;
    # it only stores, and the logs are taken in one pass after it
    p = np.zeros(l_max + 1)
    shifts = np.zeros(l_max + 1)
    p[k] = 1.0
    if k < l_max:
        p_prev = 1.0
        p_cur = x * (2 * k + 1)
        shift = 0.0
        p[k + 1] = p_cur
        for ell in range(k + 2, l_max + 1):
            p_next = ((2 * ell - 1) * x * p_cur - (ell + k - 1) * p_prev) / (ell - k)
            p_prev, p_cur = p_cur, p_next
            mag = max(abs(p_cur), abs(p_prev))
            if mag > _RESCALE:
                p_cur /= _RESCALE
                p_prev /= _RESCALE
                shift += _LOG_RESCALE
            p[ell] = p_cur
            shifts[ell] = shift
    with np.errstate(divide="ignore"):  # zeros, below the seed included, give -inf
        logs = np.log(np.abs(p)) + shifts + log_seed
    return np.sign(p), logs


def _squeeze_angle(theta: float) -> tuple[float, float]:
    """(beta, tanh^2(2 theta)) with beta = 1/cosh(2 theta), rejecting theta by name."""
    check_finite(theta=theta)
    try:
        beta = 1.0 / math.cosh(2.0 * theta)
    except OverflowError:
        raise ValueError(f"theta={theta} is too large: cosh(2 theta) overflows a double") from None
    return beta, math.tanh(2.0 * theta) ** 2


def squeeze_element(m: int, n: int, theta: float, sign: int = +1) -> float:
    """<2m|S(sign * 2 theta)|2n> with S(s) = exp[(s/2)(a'^2 - a^2)].

    The table is seeded from tanh^2(2 theta) = 1 - beta^2, which keeps
    its digits where beta rounds to 1.
    """
    check_count("m", m, 0)
    check_count("n", n, 0)
    check_parity("sign", sign)
    beta, tanh2 = _squeeze_angle(theta)
    if tanh2 == 0.0:
        return float(m == n)  # S(0) is the identity; its zeros stay +0.0 for either sign
    signs, logs = legendre_log_table(m - n, m + n, beta, tanh2)
    if signs[m + n] == 0.0:
        return 0.0
    log_fac = 0.5 * (gammaln(2 * n + 1) - gammaln(2 * m + 1))
    value = float(signs[m + n]) * math.exp(0.5 * math.log(beta) + log_fac + float(logs[m + n]))
    s_eff = sign if theta >= 0.0 else -sign
    return (-1.0) ** (m - n) * value if s_eff == -1 else value


@dataclass(frozen=True)
class SqueezeMatrix:
    """Dense <2m|S(sign*2 theta)|2n> block, m, n = 0..n_max-1."""

    theta: float
    n_max: int
    sign: int
    entries: np.ndarray


_BLOCK_ENTRIES = 2**14  # entries per assembly block: its temporaries stay small beside n_max^2


def _legendre_sweep(beta: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Renormalized P_(m+n)^(m-n)(beta) and their rescale counts, on the lower triangle m >= n.

    One upward sweep over the degree l advances the recurrence of every
    order k = m - n still needed as one vector, each from its seed at
    l = k (P_k^k = 1, P_(k-1)^k = 0), and stores the entries with
    m + n = l, an anti-diagonal, as it passes.  Each order sees the float
    operations of its own legendre_log_table, and renormalizes at the same
    degrees.  Every order's float shift starts at 0.0 and adds _LOG_RESCALE
    once a rescale, so an entry stores only its count c of rescales: at
    most one a degree, 2 n_max - 1 in all, in the smallest unsigned type
    that holds that.  The upper triangles stay zero.
    """
    p_prev = np.zeros(n_max)  # P_(k-1)^k = 0 relative to the seed
    p_cur = np.ones(n_max)  # P_k^k = seed
    count = np.zeros(n_max, dtype=np.min_scalar_type(2 * n_max - 1))
    up = np.arange(3 * n_max, dtype=float)  # (l + k - 1) is a slice of it,
    down = up[::-1]  # and (l - k) of its reverse
    p = np.zeros((n_max, n_max))
    counts = np.zeros((n_max, n_max), dtype=count.dtype)
    p_flat, counts_flat = p.reshape(-1), counts.reshape(-1)
    stride = max(n_max - 1, 1)  # the flat step from (m, n) to (m + 1, n - 1)
    for ell in range(2 * n_max - 1):
        top = min(ell, 2 * n_max - 2 - ell)  # orders still needed at this degree
        width = min(ell - 1, top) + 1  # orders 0..width-1 advance; order ell is only seeded
        if width:
            cur, prev = p_cur[:width], p_prev[:width]
            p_next = (((2 * ell - 1) * beta * cur - up[ell - 1 : ell - 1 + width] * prev)
                      / down[3 * n_max - 1 - ell : 3 * n_max - 1 - ell + width])
            prev[:] = cur
            cur[:] = p_next
            if np.abs(cur).max() > _RESCALE:  # prev passed this test one degree earlier
                big = np.nonzero(np.maximum(np.abs(cur), np.abs(prev)) > _RESCALE)[0]
                cur[big] /= _RESCALE
                prev[big] /= _RESCALE
                count[big] += 1
        k0 = ell % 2  # m + n = ell needs k = m - n of ell's parity
        start = (ell + k0) // 2 * n_max + (ell - k0) // 2
        stop = start + (top - k0) // 2 * stride + 1
        p_flat[start:stop:stride] = p_cur[k0 : top + 1 : 2]
        counts_flat[start:stop:stride] = count[k0 : top + 1 : 2]
    return p, counts


def squeeze_matrix(theta: float, n_max: int, sign: int = +1) -> SqueezeMatrix:
    """Matrix of squeeze elements in the even Fock sector.

    A store-only degree sweep (_legendre_sweep) leaves every renormalized
    P_(m+n)^(m-n)(beta) and its rescale count c on the lower triangle
    (m >= n).  Row blocks of it are then assembled in place, in vectorized
    passes: log|P| + shift + log seed in the np.log of legendre_log_table,
    with the shift read from a table t[c] summed as each order sums its
    own, then the factorial ratio, exp and the sign, so the result is
    bitwise the per-order assembly from legendre_log_table.  The memory
    peak is the n_max^2 values, their counts and one block's temporaries.
    The upper triangle is <2n|S(2t)|2m> = (-1)^(m-n) <2m|S(2t)|2n>,
    written by assignment so that underflowed -0.0 entries keep their
    sign, and sign = -1 is the transpose: entries(S(2t)) ==
    entries(S(-2t)).T bit-exactly.
    theta = 0 gives the identity.
    """
    check_count("n_max", n_max)
    check_parity("sign", sign)
    beta, tanh2 = _squeeze_angle(theta)
    if tanh2 == 0.0:
        return SqueezeMatrix(theta=theta, n_max=n_max, sign=sign, entries=np.eye(n_max))

    entries, counts = _legendre_sweep(beta, n_max)  # entries is assembled in place
    shifts = np.cumsum(np.r_[0.0, np.full(int(counts.max()), _LOG_RESCALE)])  # t[c], 0.0 + L + L ...
    orders = np.arange(n_max)
    log_fact = gammaln(2.0 * orders + 1.0)
    log_seed = np.array([log_double_factorial(2 * k - 1) + 0.5 * k * math.log(tanh2)
                         for k in range(n_max)])
    half_log_beta = 0.5 * math.log(beta)
    s_eff = sign if theta >= 0.0 else -sign
    rows = max(1, _BLOCK_ENTRIES // n_max)
    for r0 in range(0, n_max, rows):
        r1 = min(r0 + rows, n_max)
        m = orders[r0:r1, None]
        k = np.abs(m - orders[:r1])  # m - n below the diagonal; what it gives above is overwritten
        p = entries[r0:r1, :r1]
        with np.errstate(divide="ignore"):
            log_p = np.log(np.abs(p))
        log_p += shifts[counts[r0:r1, :r1]]
        log_p += log_seed[k]
        vals = np.sign(p) * np.exp(half_log_beta + 0.5 * (log_fact[:r1] - log_fact[m]) + log_p)
        mirrored = np.where(k % 2 == 1, -1.0, 1.0) * vals
        lower, upper = (vals, mirrored) if s_eff == 1 else (mirrored, vals)
        entries[r0:r1, :r0] = lower[:, :r0]
        entries[:r0, r0:r1] = upper[:, :r0].T
        entries[r0:r1, r0:r1] = np.where(np.tri(r1 - r0, dtype=bool), lower[:, r0:], upper[:, r0:].T)
    return SqueezeMatrix(theta=theta, n_max=n_max, sign=sign, entries=entries)
