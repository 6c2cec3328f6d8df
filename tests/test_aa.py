import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tpqrm.model import ModelParams, critical_params


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
    p = at_beta(0.35, 0.17, 0.5)
    mat = aa_matrix(p, 12)
    for m in range(12):
        for n in range(12):
            assert mat[m, n] == pytest.approx(
                aa_matrix_element(m, n, p).value, rel=1e-12, abs=1e-300
            )


@settings(max_examples=60)
@given(r=st.floats(0.0, 1.0), delta=st.floats(0.0, 2.0), beta=st.floats(0.05, 1.0),
       n_max=st.integers(1, 16))
def test_squeeze_operator_matrix_matches_legendre_elements(r, delta, beta, n_max):
    # aa_matrix (squeeze-operator form) against aa_matrix_element (Legendre form)
    p = at_beta(r, beta, delta)
    mat = aa_matrix(p, n_max)
    ref = np.array([[aa_matrix_element(m, n, p).value for n in range(n_max)]
                    for m in range(n_max)])
    assert np.abs(mat - ref).max() <= 1e-12 * np.abs(ref).max()


def test_matrix_is_symmetric_numerically():
    for beta in (0.3, 0.1):
        mat = aa_matrix(at_beta(0.6, beta), 14)
        assert np.abs(mat - mat.T).max() < 1e-13 * max(1.0, np.abs(mat).max())


def test_matrix_builds_one_legendre_table_per_order(monkeypatch):
    from tpqrm import specfun

    orders = []
    table = specfun.legendre_log_table

    def counting(k, l_max, x):
        orders.append(k)
        return table(k, l_max, x)

    monkeypatch.setattr(specfun, "legendre_log_table", counting)
    aa_matrix(at_beta(0.6, 0.3), 64)
    assert len(orders) <= 65
    assert sorted(orders) == list(range(65))  # orders 0..n_max of the one squeeze matrix


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


def test_state_correction_scales_beta_three_halves():
    betas = np.geomspace(0.01, 0.1, 6)
    vals = [second_order_corrections(at_beta(0.6, b), 0)[0] for b in betas]
    slope = np.polyfit(np.log(betas), np.log(vals), 1)[0]
    assert 1.3 <= slope <= 1.7
