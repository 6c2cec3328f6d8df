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

The sweep tests max|P| > _RESCALE only where a growth bound lets it
pass.  An order k advanced at degree l has l - k >= 1 and
l + k - 1 <= 2l - 2, so with b_j bounding the advanced orders at degree j

    |P_l^k| <= b_l = ((2l - 1) beta b_(l-1) + (2l - 2) b_(l-2)) (1 + 1e-12),

the factor covering the step's roundings: at most max(1, (2l - 1) beta +
2l - 2)-fold growth a degree.  A test resets b to the maxima it reads.
While b <= _RESCALE the test is false, so the rescales are the per-degree
test's bit for bit.  A 481-row sweep at the frame's beta = 0.3 tests at
14 of its 961 degrees, and a 120-row one at criterion 08(d)'s angles at
1 or 2 of 239; none of them rescales.  ed._hermite_sum gates its test
the same way.

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

from .model import check_budget, check_count, check_finite, check_parity

_RESCALE = 1e250
_LOG_RESCALE = math.log(_RESCALE)
_SLACK = 1.0 + 1e-12  # a growth bound's allowance for the roundings of one recurrence step

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


def _legendre_sweep(beta: float, n_max: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Renormalized P_(m+n)^(m-n)(beta) and their rescale counts, on the lower triangle m >= n.

    One upward sweep over the degree l advances the recurrence of every
    order k = m - n still needed as one vector, each from its seed at
    l = k (P_k^k = 1, P_(k-1)^k = 0), and stores the entries with
    m + n = l, an anti-diagonal, as it passes.  Each order sees the float
    operations of its own legendre_log_table, and renormalizes at the same
    degrees.  Every order's float shift starts at 0.0 and adds _LOG_RESCALE
    once a rescale, so an entry stores only its count c of rescales: at
    most one a degree, 2 n_max - 1 in all, in the smallest unsigned type
    that holds that.  The counts are allocated at the first rescale, and
    are None when there is none.  The upper triangles stay zero.

    The rescale test max|P| > _RESCALE runs only once the growth bound
    b_l = ((2l - 1) beta b_(l-1) + (2l - 2) b_(l-2)) (1 + 1e-12) of the
    module docstring (with b >= 1, a seed's value) passes it, and resets
    b to the maxima it reads.  While b <= _RESCALE the test is false, so
    every rescale degree, count and bit is the per-degree test's.
    """
    prev, cur, tmp = np.empty((3, n_max))  # rotated as the degree rises; each order seeds its own
    cur[0], prev[0] = 1.0, 0.0  # order 0 starts at l = 0
    counts = count = counts_flat = None
    up = np.arange(3 * n_max, dtype=float)  # (l + k - 1) is a slice of it,
    down = up[::-1]  # and (l - k) of its reverse
    factor = np.empty(())  # (2l - 1) beta; a 0-d array multiplies with less dispatch than a float
    p = np.zeros((n_max, n_max))
    p_flat = p.reshape(-1)
    p_flat[0] = 1.0
    stride = max(n_max - 1, 1)  # the flat step from (m, n) to (m + 1, n - 1)
    bound = bound_prev = 1.0  # of |cur| and |prev| over the advanced orders
    for ell in range(1, 2 * n_max - 1):
        # orders 0..width-1 advance; below n_max order ell starts, above it the orders past top retire
        top = ell if ell < n_max else 2 * n_max - 2 - ell
        width = ell if ell < n_max else top + 1
        c, pv, t = cur[:width], prev[:width], tmp[:width]
        factor[()] = f = (2 * ell - 1) * beta
        np.multiply(factor, c, t)
        np.multiply(up[ell - 1 : ell - 1 + width], pv, pv)
        np.subtract(t, pv, pv)
        np.divide(pv, down[3 * n_max - 1 - ell : 3 * n_max - 1 - ell + width], pv)
        prev, cur = cur, prev
        bound, bound_prev = (f * bound + (2 * ell - 2) * bound_prev) * _SLACK, bound
        if bound > _RESCALE:  # prev passed this test one degree earlier
            c, pv = cur[:width], prev[:width]
            mag = np.abs(c)
            bound, bound_prev = float(mag.max()), float(np.abs(pv).max())
            if bound > _RESCALE:
                big = np.flatnonzero(mag > _RESCALE)
                c[big] /= _RESCALE
                pv[big] /= _RESCALE
                if count is None:
                    count = np.zeros(n_max, dtype=np.min_scalar_type(2 * n_max - 1))
                    counts = np.zeros((n_max, n_max), dtype=count.dtype)
                    counts_flat = counts.reshape(-1)
                count[big] += 1
                bound = float(np.abs(c).max())
        if ell < n_max:  # order ell starts: P_ell^ell = 1, P_(ell-1)^ell = 0
            cur[ell], prev[ell] = 1.0, 0.0
            bound = max(bound, 1.0)
        k0 = ell & 1  # m + n = ell needs k = m - n of ell's parity
        start = (ell + k0) // 2 * n_max + (ell - k0) // 2
        stop = start + (top - k0) // 2 * stride + 1
        p_flat[start:stop:stride] = cur[k0 : top + 1 : 2]
        if count is not None:
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
    bitwise the per-order assembly from legendre_log_table.  With no
    rescale there are no counts, and the shift (t[0] = 0.0; log|P| is
    never -0.0) is not added.  The log seeds come from one table of
    math.lgamma, in log_double_factorial's float operations and order.
    The memory peak is the n_max^2 values, their counts (when the sweep
    rescaled) and one block's temporaries; an n_max past the entry budget
    (model.check_budget) is rejected before any of them is allocated.
    The sweep tests for rescale only once its growth bound
    b_l = ((2l - 1) beta b_(l-1) + (2l - 2) b_(l-2)) (1 + 1e-12) passes
    _RESCALE (module docstring), so it is bitwise a per-degree test.
    The upper triangle is <2n|S(2t)|2m> = (-1)^(m-n) <2m|S(2t)|2n>,
    written by assignment so that underflowed -0.0 entries keep their
    sign, and sign = -1 is the transpose: entries(S(2t)) ==
    entries(S(-2t)).T bit-exactly.
    theta = 0 gives the identity.
    """
    check_count("n_max", n_max)
    check_parity("sign", sign)
    check_budget(f"n_max={n_max}", n_max * n_max)
    beta, tanh2 = _squeeze_angle(theta)
    if tanh2 == 0.0:
        return SqueezeMatrix(theta=theta, n_max=n_max, sign=sign, entries=np.eye(n_max))

    entries, counts = _legendre_sweep(beta, n_max)  # entries is assembled in place
    orders = np.arange(n_max)
    log_fact = gammaln(2.0 * orders + 1.0)
    # log_double_factorial(2k - 1) from one lgamma table, in its float operations and order
    lgamma = np.array([0.0, *map(math.lgamma, range(1, 2 * n_max))])  # [0] is only read for k = 0
    log_dfact = lgamma[2 * orders] - (orders - 1) * _LOG2 - lgamma[orders]
    log_dfact[:2] = 0.0  # (-1)!! = 1!! = 1
    log_seed = log_dfact + 0.5 * orders * math.log(tanh2)
    half_log_beta = 0.5 * math.log(beta)
    mirror = np.where(orders % 2 == 1, -1.0, 1.0)  # (-1)^k, read by k
    if counts is not None:  # t[c] = 0.0 + L + L ..., summed as each order sums its own shift
        shifts = np.cumsum(np.r_[0.0, np.full(int(counts.max()), _LOG_RESCALE)])
    s_eff = sign if theta >= 0.0 else -sign
    rows = max(1, _BLOCK_ENTRIES // n_max)
    for r0 in range(0, n_max, rows):
        r1 = min(r0 + rows, n_max)
        m = orders[r0:r1, None]
        k = np.abs(m - orders[:r1])  # m - n below the diagonal; what it gives above is overwritten
        p = entries[r0:r1, :r1]
        with np.errstate(divide="ignore"):
            log_p = np.log(np.abs(p))
        if counts is not None:  # else every shift is t[0] = 0.0, and log|p| is never -0.0
            log_p += shifts[counts[r0:r1, :r1]]
        log_p += log_seed[k]
        vals = np.sign(p) * np.exp(half_log_beta + 0.5 * (log_fact[:r1] - log_fact[m]) + log_p)
        mirrored = mirror[k] * vals
        lower, upper = (vals, mirrored) if s_eff == 1 else (mirrored, vals)
        entries[r0:r1, :r0] = lower[:, :r0]
        entries[:r0, r0:r1] = upper[:, :r0].T
        entries[r0:r1, r0:r1] = np.where(np.tri(r1 - r0, dtype=bool), lower[:, r0:], upper[:, r0:].T)
    return SqueezeMatrix(theta=theta, n_max=n_max, sign=sign, entries=entries)
