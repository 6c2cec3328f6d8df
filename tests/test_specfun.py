import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from scipy.special import gammaln

from oracles import legendre_pk_log
from tpqrm import specfun
from tpqrm.specfun import (
    legendre_log_table,
    log_double_factorial,
    squeeze_element,
    squeeze_matrix,
)


def double_factorial(n: int):
    """Oracle: n!! with (-1)!! = 0!! = 1; exact integers up to n = 30, log-gamma above."""
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


def legendre_pk(l: int, k: int, x: float) -> float:
    """P_l^k(x) under the pinned conventions (may overflow to inf for huge values)."""
    sign, log_abs = legendre_pk_log(l, k, x)
    if sign == 0.0:
        return 0.0
    return sign * math.exp(log_abs)


def legendre_smallbeta(l: int, k: int, beta: float) -> float:
    """Oracle: leading small-argument form of P_l^k(beta), error O(beta^4).

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


def test_double_factorial_small_values():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(8) == 384
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_log_double_factorial_rejects_n_below_minus_one_by_name():
    assert log_double_factorial(-1) == 0.0
    with pytest.raises(ValueError, match=r"^double factorial undefined for n=-2 < -1$"):
        log_double_factorial(-2)


def test_double_factorial_log_path_consistent():
    # ratio (n!!)/((n-2)!!) = n survives the switch to log space
    assert double_factorial(31) / double_factorial(29) == pytest.approx(31.0, rel=1e-12)
    assert log_double_factorial(40) == pytest.approx(math.log(float(double_factorial(30))) + sum(
        math.log(k) for k in (32, 34, 36, 38, 40)), rel=1e-13)


def test_legendre_base_cases():
    for x in (0.0, 0.3, 0.77, 1.0):
        assert legendre_pk(0, 0, x) == pytest.approx(1.0, abs=1e-15)
    beta = 0.42
    # no Condon-Shortley phase: P_1^1 is positive
    assert legendre_pk(1, 1, beta) == pytest.approx(math.sqrt(1 - beta * beta), rel=1e-14)
    assert legendre_pk(2, 0, 0.1) == pytest.approx((3 * 0.01 - 1) / 2, rel=1e-14)
    assert legendre_pk(3, 1, 0.5) == pytest.approx(
        math.sqrt(1 - 0.25) * (-1.5) * (1 - 5 * 0.25), rel=1e-13
    )


def test_legendre_negative_order_relation():
    # P_2^-2 = (1-x^2)/8, from P_2^2 = 3(1-x^2) and the pinned relation
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.0, 1.0, 20):
        assert legendre_pk(2, -2, x) == pytest.approx((1 - x * x) / 8.0, rel=1e-12, abs=1e-15)
        assert legendre_pk(2, 2, x) == pytest.approx(3.0 * (1 - x * x), rel=1e-12, abs=1e-15)


def test_legendre_negative_degree_and_overrange_order():
    assert legendre_pk(-1, 1, 0.3) == 0.0  # P_-1^1 = P_0^1 = 0
    assert legendre_pk(-3, 0, 0.3) == pytest.approx(legendre_pk(2, 0, 0.3), rel=1e-14)
    assert legendre_pk(3, 4, 0.3) == 0.0
    with pytest.raises(ValueError):
        legendre_pk(2, 0, 1.5)


def test_legendre_three_term_recurrence():
    # (l-k+1) P_(l+1)^k = (2l+1) x P_l^k - (l+k) P_(l-1)^k
    xs = np.linspace(0.01, 0.99, 15)
    worst = 0.0
    for l in range(1, 41):
        for k in range(-l, l + 1):
            for x in xs:
                lhs = (l - k + 1) * legendre_pk(l + 1, k, x)
                rhs = (2 * l + 1) * x * legendre_pk(l, k, x) - (l + k) * legendre_pk(l - 1, k, x)
                scale = max(abs(lhs), abs(rhs), 1e-300)
                worst = max(worst, abs(lhs - rhs) / scale)
    assert worst < 1e-10


def test_smallbeta_examples():
    for beta in (0.05, 0.2):
        assert legendre_smallbeta(0, 0, beta) == pytest.approx(1.0, abs=1e-15)
        assert legendre_smallbeta(1, 1, beta) == pytest.approx(
            math.sqrt(1 - beta * beta), rel=1e-14
        )
    assert legendre_smallbeta(2, 0, 0.1) == pytest.approx(-0.485, rel=1e-14)
    assert legendre_pk(2, 0, 0.1) == pytest.approx(-0.485, rel=1e-14)
    with pytest.raises(ValueError):
        legendre_smallbeta(2, 1, 0.1)
    with pytest.raises(ValueError):
        legendre_smallbeta(4, 0, 0.5)


def test_smallbeta_exact_when_l_minus_k_two():
    # for l - k = 2 the bracket is the whole polynomial: no O(beta^4) term
    for (l, k) in [(3, 1), (5, 3), (2, 0)]:
        for b in (1e-3, 1e-2, 1e-1):
            assert legendre_smallbeta(l, k, b) == pytest.approx(
                legendre_pk(l, k, b), rel=1e-12
            )


def test_smallbeta_error_scales_as_beta4():
    betas = np.geomspace(1e-3, 1e-1, 9)
    for (l, k) in [(4, 0), (5, 1), (6, 2)]:  # l - k >= 4 has a genuine beta^4 term
        errs = np.array(
            [abs(legendre_pk(l, k, b) - legendre_smallbeta(l, k, b)) for b in betas]
        )
        assert np.all(errs > 0)
        slope = np.polyfit(np.log(betas), np.log(errs), 1)[0]
        assert slope >= 3.5


def _squeeze_oracle(theta: float, n_fock: int) -> np.ndarray:
    """Exponentiate the truncated generator theta*(a'^2 - a^2) (i.e. S(2 theta))."""
    n = np.arange(n_fock)
    a = np.diag(np.sqrt(n[1:].astype(float)), 1)
    gen = theta * (a.T @ a.T - a @ a)
    return expm(gen)


def test_squeeze_element_identity_at_zero():
    for sign in (+1, -1):
        for m in range(5):
            for n in range(5):
                v = squeeze_element(m, n, 0.0, sign)
                assert v == (1.0 if m == n else 0.0)
                assert math.copysign(1.0, v) == 1.0  # no -0.0 off the diagonal


def test_squeeze_element_against_exponentiated_generator():
    # the truncated-generator oracle itself needs a basis several times
    # larger than the probed block: S(2t)|2n> is centered near manifold
    # n cosh(4t), far above n for t ~ 1
    for theta in (0.2, 0.6, 1.0):
        oracle = _squeeze_oracle(theta, 600)
        beta = 1.0 / math.cosh(2 * theta)
        assert squeeze_element(0, 0, theta, +1) == pytest.approx(math.sqrt(beta), rel=1e-12)
        worst = 0.0
        for m in range(21):
            for n in range(21):
                worst = max(
                    worst, abs(squeeze_element(m, n, theta, +1) - oracle[2 * m, 2 * n])
                )
                worst = max(
                    worst, abs(squeeze_element(m, n, theta, -1) - oracle[2 * n, 2 * m])
                )
        assert worst < 1e-9


def test_squeeze_element_keeps_small_angles():
    # <2|S(2t)|0> = sqrt(beta) tanh(2t) / sqrt(2), where beta = 1/cosh(2t)
    # rounds to 1 long before tanh(2t) loses a digit
    for theta in (7e-7, 7.5e-9):
        beta = 1.0 / math.cosh(2 * theta)
        exact = math.sqrt(beta) * math.tanh(2 * theta) / math.sqrt(2.0)
        assert squeeze_element(1, 0, theta, +1) == pytest.approx(exact, rel=1e-12)
        assert squeeze_matrix(theta, 3).entries[1, 0] == pytest.approx(exact, rel=1e-12)


def test_squeeze_negative_theta_matches_sign_flip():
    assert squeeze_element(3, 1, -0.7, +1) == squeeze_element(3, 1, 0.7, -1)


def test_squeeze_row_orthonormality():
    # rows keep unit norm once the basis covers the m cosh(4 theta) spread
    mat = squeeze_matrix(0.4, 240).entries
    sums = (mat**2).sum(axis=1)
    assert np.abs(sums[:25] - 1.0).max() < 1e-10


def test_squeeze_matrix_transpose_identity_exact():
    plus = squeeze_matrix(1.1, 60, +1).entries
    minus = squeeze_matrix(1.1, 60, -1).entries
    assert np.array_equal(plus, minus.T)


@pytest.mark.parametrize(
    "theta,n_max,interior",
    [(0.3, 240, 30), (0.5, 480, 30), (0.8, 960, 20), (1.0, 960, 10)],
)
def test_squeeze_matrix_orthogonality(theta, n_max, interior):
    # S(2t) S(-2t) = 1 on interior blocks whose squeezed images fit the basis;
    # the interior cannot scale with n_max because the image of row m is
    # centered near m cosh(4t), which outruns any fixed fraction of n_max
    plus = squeeze_matrix(theta, n_max, +1).entries
    minus = squeeze_matrix(theta, n_max, -1).entries
    prod = plus @ minus
    err = np.abs(prod[:interior, :interior] - np.eye(interior)).max()
    assert err < 1e-8


def _squeeze_matrices_per_order(theta: float, n_max: int) -> dict[int, np.ndarray]:
    """Oracle: the squeeze matrices of both signs from one legendre_log_table per order m - n."""
    beta = 1.0 / math.cosh(2.0 * theta)
    tanh2 = math.tanh(2.0 * theta) ** 2
    plus = np.zeros((n_max, n_max))
    ns_all = np.arange(n_max)
    log_fact = gammaln(2.0 * ns_all + 1.0)
    for d in range(n_max):
        ns = ns_all[: n_max - d]
        ms = ns + d
        signs, logs = legendre_log_table(d, 2 * n_max - 2, beta, tanh2)
        log_total = 0.5 * math.log(beta) + 0.5 * (log_fact[ns] - log_fact[ms]) + logs[ms + ns]
        vals = signs[ms + ns] * np.exp(log_total)
        plus[ms, ns] = vals
        if d > 0:
            plus[ns, ms] = (-1.0) ** d * vals
    mm, nn = np.meshgrid(ns_all, ns_all, indexing="ij")
    minus = plus * (-1.0) ** (mm - nn)
    return {+1: plus, -1: minus} if theta >= 0.0 else {+1: minus, -1: plus}


@pytest.mark.parametrize("theta", [0.0, 1e-4, 0.3, 1.5, -0.7, 0.5 * math.acosh(1 / 0.3), 0.05])
def test_squeeze_matrix_sweep_is_bitwise_the_per_order_tables(theta):
    # the one degree sweep repeats every order's own recurrence, renormalization
    # included (theta = 1e-4 renormalizes 201 times at n_max = 481); theta = 0 is
    # the exact identity, whose zeros are all +0.0 where the per-order mirror
    # leaves -0.0 on odd diagonals.  0.5 acosh(1/0.3) is the frame theta at
    # beta = 0.3; at theta = 0.05 the far corner (5,297 entries below the
    # diagonal at n_max = 481) underflows beside entries of both signs, and its
    # mirrored zeros are -0.0 on odd diagonals.  n_max = 120 is criterion 08(d)'s.
    for n_max in (1, 2, 7, 120, 481):
        oracle = _squeeze_matrices_per_order(theta, n_max)
        for sign in (+1, -1):
            got = squeeze_matrix(theta, n_max, sign).entries
            want = np.eye(n_max) if theta == 0.0 else oracle[sign]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(got, oracle[sign])


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_squeeze_rejects_a_non_finite_theta_by_name(theta):
    with pytest.raises(ValueError, match=f"^theta={theta} must be finite$"):
        squeeze_matrix(theta, 4)
    with pytest.raises(ValueError, match=f"^theta={theta} must be finite$"):
        squeeze_element(1, 0, theta)


@pytest.mark.parametrize("theta", [1e6, -1e6, 356.0])
def test_squeeze_rejects_a_theta_whose_cosh_overflows_by_name(theta):
    with pytest.raises(ValueError, match=rf"^theta={theta} is too large: cosh\(2 theta\) overflows"):
        squeeze_matrix(theta, 4)
    with pytest.raises(ValueError, match=rf"^theta={theta} is too large: cosh\(2 theta\) overflows"):
        squeeze_element(1, 0, theta)


def test_squeeze_keeps_the_largest_theta_whose_cosh_fits():
    # cosh(2 * 354) is finite: beta ~ 1e-307 and S(2 theta) is still defined
    assert squeeze_element(0, 0, 354.0) == pytest.approx(math.sqrt(1.0 / math.cosh(708.0)), rel=1e-12)
    assert squeeze_matrix(354.0, 3).entries[0, 0] == squeeze_element(0, 0, 354.0)


@pytest.mark.parametrize("n_max,reason", [(True, "must be an integer"), (4.0, "must be an integer"),
                                          (0, "must be >= 1"), (-3, "must be >= 1")])
def test_squeeze_matrix_rejects_a_bad_n_max_by_name(n_max, reason):
    with pytest.raises(ValueError, match=f"^n_max={n_max} {reason}$"):
        squeeze_matrix(0.3, n_max)


def test_squeeze_matrix_memory_stays_below_three_matrices():
    # the sweep's values, its rescale counts (2 bytes each at n_max = 481) and
    # one row block of the assembly: 3.22e6 bytes
    squeeze_matrix(0.94, 8)  # lazy imports and caches stay out of the count
    tracemalloc.start()
    try:
        squeeze_matrix(0.94, 481)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 481**2 * 8


@pytest.mark.parametrize("name,value,reason", [(name, value, reason) for name in ("m", "n")
                                               for value, reason in [(2.5, "must be an integer"),
                                                                     (True, "must be an integer"),
                                                                     (-1, "must be >= 0")]])
def test_squeeze_element_rejects_a_bad_index_by_name(monkeypatch, name, value, reason):
    def unreachable(*args):
        raise AssertionError("legendre_log_table reached with a bad index")

    monkeypatch.setattr(specfun, "legendre_log_table", unreachable)
    indices = {"m": 1, "n": 0, name: value}
    with pytest.raises(ValueError, match=f"^{name}={value} {reason}$"):
        squeeze_element(indices["m"], indices["n"], 0.3)


def test_a_zero_table_entry_gives_a_positive_zero(monkeypatch):
    # P_l^k vanishes at its roots in (0, 1); a table entry that is exactly 0 gives +0.0
    # for either sign, as S(0)'s zeros do, not the -0.0 of (-1)^(m-n) 0
    table = specfun.legendre_log_table

    def zero_top(k, l_max, *args):
        signs, logs = table(k, l_max, *args)
        signs[l_max], logs[l_max] = 0.0, -np.inf
        return signs, logs

    monkeypatch.setattr(specfun, "legendre_log_table", zero_top)
    for sign in (+1, -1):
        value = squeeze_element(2, 1, 0.3, sign)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
