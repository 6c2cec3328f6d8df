import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import m_element_legendre, second_order_legendre
from tpqrm import aa
from tpqrm.aa import (
    aa_energy,
    aa_gaps,
    aa_matrix,
    aa_matrix_element,
    aa_observables,
    aa_qfi_leading,
    alpha_coefficient,
    k_factor,
    second_order_corrections,
)
from tpqrm.model import ModelParams, critical_params, geometry
from tpqrm.specfun import squeeze_matrix


def at_beta(r: float, beta: float, delta: float | None = None) -> ModelParams:
    g_c, delta_c = critical_params(r)
    g = g_c * math.sqrt(1.0 - beta * beta)
    return ModelParams(delta=delta_c if delta is None else delta, g=g, r=r)


def test_m00_closed_form_identity():
    # M_00 = (sqrt(beta)/2)(delta + Delta_c beta^2) holds exactly, not just to O(beta^4)
    for r in (0.25, 0.6):
        _, delta_c = critical_params(r)
        for beta in (0.3, 0.1, 0.01):
            for det in (0.0, 0.1):
                el = aa_matrix_element(0, 0, at_beta(r, beta, delta_c + det))
                expected = 0.5 * math.sqrt(beta) * (det + delta_c * beta * beta)
                assert el.value == pytest.approx(expected, rel=1e-12)


def test_mnn_at_zero_coupling():
    p = ModelParams(delta=0.7, g=0.0, r=0.6)
    for n in range(5):
        el = aa_matrix_element(n, n, p)
        assert el.value == pytest.approx((-1.0) ** n * 0.35, rel=1e-13)


def test_alpha_and_k_factor_examples():
    _, delta_c = critical_params(0.6)
    p = at_beta(0.6, 0.1)
    el = aa_matrix_element(0, 1, p)
    assert el.alpha == pytest.approx(4 * delta_c - p.delta, rel=1e-14)
    assert el.alpha == pytest.approx(3 * delta_c, rel=1e-14)
    assert el.k_factor == pytest.approx(math.sqrt(0.5) * math.sqrt(1 - 0.1**2), rel=1e-13)
    assert k_factor(3, 7, 0.2) == pytest.approx(k_factor(7, 3, 0.2), rel=1e-14)
    assert alpha_coefficient(1, 2, 0.3, 0.25) != alpha_coefficient(2, 1, 0.3, 0.25)


def test_expansion_agrees_to_beta_squared():
    # relative gap between exact and expanded forms drops ~4x per beta halving
    for (m, n) in [(1, 2), (2, 2), (3, 1)]:
        gaps = []
        for beta in (0.1, 0.05, 0.025):
            el = aa_matrix_element(m, n, at_beta(0.6, beta))
            gaps.append(abs(el.value - el.small_beta_value) / abs(el.value))
        assert 3.0 < gaps[0] / gaps[1] < 5.0
        assert 3.0 < gaps[1] / gaps[2] < 5.0
    # first-row elements at delta = 0 are reproduced exactly by the expansion
    el = aa_matrix_element(0, 1, at_beta(0.6, 0.01))
    assert abs(el.value - el.small_beta_value) / abs(el.value) < 0.01**2


def test_matrix_builder_matches_scalar_path():
    # the scalar path reads its entry of a smaller build; the Legendre form is the oracle
    p = at_beta(0.35, 0.17, 0.5)
    mat = aa_matrix(p, 12)
    for m in range(12):
        for n in range(12):
            assert mat[m, n] == pytest.approx(
                m_element_legendre(m, n, p), rel=1e-12, abs=1e-300
            )
            assert aa_matrix_element(m, n, p).value == mat[m, n]


@settings(max_examples=60)
@given(r=st.floats(0.0, 1.0), delta=st.floats(0.0, 2.0), beta=st.floats(0.05, 1.0),
       n_max=st.integers(1, 16))
def test_squeeze_operator_matrix_matches_legendre_elements(r, delta, beta, n_max):
    # aa_matrix (squeeze-operator form) against the oracle's Legendre form
    p = at_beta(r, beta, delta)
    mat = aa_matrix(p, n_max)
    ref = np.array([[m_element_legendre(m, n, p) for n in range(n_max)]
                    for m in range(n_max)])
    assert np.abs(mat - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("r", [0.25, 0.6])
def test_squeeze_operator_matrix_matches_legendre_elements_at_tiny_coupling(r):
    # beta rounds to 1 at g = 1e-8 g_c: both forms must seed their
    # Legendre tables from tanh^2(2 theta), not from 1 - beta^2
    g_c, _ = critical_params(r)
    p = ModelParams(delta=1.0, g=1e-8 * g_c, r=r)
    mat = aa_matrix(p, 40)
    ref = np.array([[m_element_legendre(m, n, p) for n in range(40)] for m in range(40)])
    assert np.abs(mat - ref).max() <= 1e-12 * np.abs(ref).max()
    assert mat[1, 0] != 0.0  # the coupling to the next manifold survives


def _aa_matrix_whole_array(params: ModelParams, n_max: int) -> np.ndarray:
    """Oracle: M from whole-array expressions over a separate S (three n_max^2 arrays)."""
    s = squeeze_matrix(geometry(params).theta, n_max + 1).entries[:n_max]
    n = np.arange(n_max)
    m = np.zeros((n_max, n_max))
    np.multiply(s[:, : n_max - 1], np.sqrt(2.0 * n[1:] * (2.0 * n[1:] - 1.0)), out=m[:, 1:])
    m -= s[:, 1:] * np.sqrt((2.0 * n + 1.0) * (2.0 * n + 2.0))
    m *= -0.5 * params.g * (1.0 - params.r)
    m += 0.5 * params.delta * s[:, :n_max]
    m *= (-1.0) ** n[:, None]
    return m


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.0, 1.0), beta=st.floats(0.0, 1.0, exclude_min=True),
       delta=st.floats(0.0, 3.0), n_max=st.integers(1, 600))
@example(r=0.0, beta=1.0, delta=0.0, n_max=1)
@example(r=1.0, beta=0.005, delta=3.0, n_max=2)
@example(r=0.6, beta=0.3, delta=0.25, n_max=480)
@example(r=0.25, beta=0.005, delta=0.6, n_max=3)
@example(r=0.0, beta=0.005, delta=1.0, n_max=480)
def test_aa_matrix_is_bitwise_the_whole_array_expression(r, beta, delta, n_max):
    # M is written over S's buffer in row blocks; every entry sees the same operations
    g_c, _ = critical_params(r)
    p = ModelParams(delta=delta, g=g_c * math.sqrt(1.0 - beta * beta), r=r)
    assume(not geometry(p).at_collapse)
    got = aa_matrix(p, n_max)
    want = _aa_matrix_whole_array(p, n_max)
    assert got.shape == (n_max, n_max) and got.flags.c_contiguous
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_aa_matrix_memory_is_one_squeeze_matrix():
    # S, its rescale counts and one assembly block (3.22e6 bytes); M reuses S's buffer
    p = at_beta(0.6, 0.3)
    aa_matrix(p, 16)  # lazy imports and caches stay out of the count
    tracemalloc.start()
    try:
        aa_matrix(p, 480)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.4e6


@pytest.mark.parametrize("n_max,reason", [(-1, "must be >= 1"), (0, "must be >= 1"),
                                          (2.0, "must be an integer"), (True, "must be an integer")])
def test_aa_matrix_rejects_a_bad_n_max_by_name(monkeypatch, n_max, reason):
    def unreachable(theta, n):
        raise AssertionError("squeeze_matrix reached with a bad n_max")

    monkeypatch.setattr(aa, "squeeze_matrix", unreachable)
    with pytest.raises(ValueError, match=f"^n_max={n_max} {reason}$"):
        aa_matrix(at_beta(0.6, 0.3), n_max)


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.0, 1.0), beta=st.floats(0.0, 1.0, exclude_min=True),
       delta=st.floats(0.0, 3.0), n_max=st.integers(1, 200), extra=st.integers(1, 300))
@example(r=0.6, beta=0.0025, delta=0.25, n_max=1, extra=40)
@example(r=0.6, beta=0.02, delta=0.25, n_max=41, extra=439)
@example(r=0.25, beta=1.0, delta=0.6, n_max=3, extra=1)
def test_aa_matrix_entries_do_not_depend_on_the_build_size(r, beta, delta, n_max, extra):
    # every AA level, gap and element reads its M from a build of the size it
    # needs, so an entry must be bitwise the same entry of any larger build
    g_c, _ = critical_params(r)
    p = ModelParams(delta=delta, g=g_c * math.sqrt(1.0 - beta * beta), r=r)
    assume(not geometry(p).at_collapse)
    small = aa_matrix(p, n_max)
    big = aa_matrix(p, n_max + extra)
    assert np.array_equal(small.view(np.uint64), big[:n_max, :n_max].view(np.uint64))
    n, beta_p = n_max - 1, geometry(p).beta
    assert aa_energy(n, -1, p).energy == (2 * n + 0.5) * beta_p - 0.5 - big[n, n]
    assert aa_matrix_element(n, 0, p).value == big[n, 0]
    eps_sp, eps_dp = aa_gaps(n, p)
    e_minus = aa_energy(n, -1, p).energy
    assert eps_sp == abs(aa_energy(n + 1, -1, p).energy - e_minus)
    assert eps_dp == 2 * abs(big[n, n])


_BAD_INDICES = [(2.5, "must be an integer"), (True, "must be an integer"), (-1, "must be >= 0")]
_INDEXED_CALLS = {
    "aa_energy": ("n", lambda v, p: aa_energy(v, -1, p)),
    "aa_gaps": ("n", aa_gaps),
    "second_order_corrections": ("n", lambda v, p: second_order_corrections(p, v)),
    "aa_matrix_element-m": ("m", lambda v, p: aa_matrix_element(v, 0, p)),
    "aa_matrix_element-n": ("n", lambda v, p: aa_matrix_element(0, v, p)),
}


@pytest.mark.parametrize("call", sorted(_INDEXED_CALLS))
@pytest.mark.parametrize("value,reason", _BAD_INDICES)
def test_a_bad_manifold_index_is_rejected_by_name(monkeypatch, call, value, reason):
    def unreachable(params, n_max):
        raise AssertionError("aa_matrix reached with a bad manifold index")

    monkeypatch.setattr(aa, "aa_matrix", unreachable)
    name, fn = _INDEXED_CALLS[call]
    with pytest.raises(ValueError, match=f"^{name}={value} {reason}$"):
        fn(value, at_beta(0.6, 0.3))


def test_matrix_is_symmetric_numerically():
    for beta in (0.3, 0.1):
        mat = aa_matrix(at_beta(0.6, beta), 14)
        assert np.abs(mat - mat.T).max() < 1e-13 * max(1.0, np.abs(mat).max())


def test_energies_at_zero_coupling_match_decoupled_spectrum():
    delta = 1.0
    p = ModelParams(delta=delta, g=0.0, r=0.6)
    levels = sorted(aa_energy(n, par, p).energy for n in range(4) for par in (+1, -1))
    exact = sorted([2 * n + s * delta / 2 for n in range(4) for s in (+1, -1)])
    assert levels == pytest.approx(exact, abs=1e-12)


def test_energies_near_collapse_and_at_collapse():
    p = at_beta(0.6, 1e-3)
    for n in range(3):
        for par in (+1, -1):
            lvl = aa_energy(n, par, p)
            assert abs(lvl.energy - ((2 * n + 0.5) * 1e-3 - 0.5)) < 1e-3**2.4
    at_gc = ModelParams(delta=0.25, g=0.625, r=0.6)
    for n in range(4):
        assert aa_energy(n, +1, at_gc).energy == -0.5


def test_parity_order_alternates_near_collapse():
    # near collapse the splitting term is positive for every manifold (the
    # small-argument Legendre alternation cancels the explicit (-1)^n), so
    # the merged ladder alternates parity level by level: -,+,-,+,...
    p = at_beta(0.6, 0.1)
    assert all(aa_energy(n, +1, p).split_part > 0 for n in range(6))
    levels = sorted(
        (aa_energy(n, par, p).energy, par) for n in range(6) for par in (+1, -1)
    )
    assert [par for _, par in levels] == [-1, +1] * 6


def test_splitting_sign_alternates_at_weak_coupling():
    # far from collapse the (-1)^n of the decoupled limit survives
    p = ModelParams(delta=0.7, g=0.05, r=0.6)
    signs = [math.copysign(1.0, aa_energy(n, +1, p).split_part) for n in range(6)]
    assert signs == [(-1.0) ** n for n in range(6)]


def test_gaps_soft_mode_limit():
    p = at_beta(0.6, 1e-3)
    eps_sp, _ = aa_gaps(0, p)
    assert eps_sp / 1e-3 == pytest.approx(2.0, abs=1e-3)


def test_gaps_parity_splitting_closed_form():
    _, delta_c = critical_params(0.6)
    p = at_beta(0.6, 1e-2)
    _, eps_dp = aa_gaps(0, p)
    assert eps_dp == pytest.approx(delta_c * 1e-2**2.5, rel=1e-12)


def test_gap_vanishes_identically_isotropic_zero_delta():
    for g in (0.2, 0.3, 0.4):
        p = ModelParams(delta=0.0, g=g, r=1.0)
        _, eps_dp = aa_gaps(0, p)
        assert eps_dp == 0.0


def test_observables_closed_forms():
    vac = aa_observables(ModelParams(delta=0.3, g=0.0, r=0.6))
    assert (vac.photon, vac.sigma_x, vac.dx, vac.dp) == (0.0, 1.0, 1.0, 1.0)
    assert aa_observables(at_beta(0.6, 0.8)).photon == pytest.approx(0.125, rel=1e-13)
    obs = aa_observables(at_beta(0.6, 0.01))
    assert obs.sigma_x == pytest.approx(0.1, rel=1e-13)
    assert obs.dx == pytest.approx(10.0, rel=1e-13)
    assert obs.dx * obs.dp == pytest.approx(100.0, rel=1e-12)


def test_qfi_leading_values():
    assert aa_qfi_leading(at_beta(0.25, 0.1)) == pytest.approx(7812.5, rel=1e-12)
    assert aa_qfi_leading(at_beta(1.0, 0.5)) == pytest.approx(32.0, rel=1e-12)


def test_qfi_leading_slope_is_minus_two():
    xs = np.linspace(1.5, 3.0, 6)
    g_c, _ = critical_params(0.25)
    fs = [aa_qfi_leading(at_beta(0.25, math.sqrt(1 - (1 - 10.0**-x) ** 2))) for x in xs]
    u = 10.0**-xs
    slope = np.polyfit(np.log(u), np.log(fs), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.01)


def test_energy_correction_beta4_at_critical_delta():
    # the banded perturbative sum reproduces the O(beta^4) suppression
    betas = np.geomspace(0.01, 0.1, 6)
    for n in (0, 2):
        vals = [abs(second_order_corrections(at_beta(0.6, b), n)[1]) for b in betas]
        slope = np.polyfit(np.log(betas), np.log(vals), 1)[0]
        assert slope >= 3.5


def test_energy_correction_saturates_for_finite_detuning():
    _, delta_c = critical_params(0.6)
    vals = {}
    for det in (0.1, 0.05):
        e_small = second_order_corrections(at_beta(0.6, 0.01, delta_c + det), 0)[1]
        e_tiny = second_order_corrections(at_beta(0.6, 0.005, delta_c + det), 0)[1]
        assert e_small == pytest.approx(e_tiny, rel=0.05)  # beta-independent floor
        vals[det] = e_small
    assert vals[0.1] / vals[0.05] == pytest.approx(4.0, rel=0.1)  # proportional to detuning^2


# criterion 05's betas on the critical line, and the detuned points of
# test_energy_correction_saturates_for_finite_detuning
_SECOND_ORDER_POINTS = ([(float(b), 0.0) for b in np.geomspace(0.02, 0.2, 6)]
                        + [(b, det) for b in (0.01, 0.005) for det in (0.1, 0.05)])


@pytest.mark.parametrize("n", [0, 2, 45])
@pytest.mark.parametrize("beta,det", _SECOND_ORDER_POINTS)
def test_second_order_corrections_match_the_sequential_legendre_loop(beta, det, n):
    _, delta_c = critical_params(0.6)
    p = at_beta(0.6, beta, delta_c + det)
    assert second_order_corrections(p, n) == pytest.approx(second_order_legendre(p, n), rel=1e-12)


def test_state_correction_scales_beta_three_halves():
    betas = np.geomspace(0.01, 0.1, 6)
    vals = [second_order_corrections(at_beta(0.6, b), 0)[0] for b in betas]
    slope = np.polyfit(np.log(betas), np.log(vals), 1)[0]
    assert 1.3 <= slope <= 1.7
