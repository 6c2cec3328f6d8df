import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermval
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from tpqrm import ed
from tpqrm.aa import aa_energy, aa_observables, aa_qfi_leading
from tpqrm.errors import ConvergenceError
from tpqrm.model import ModelParams, SectorSpec, critical_params, geometry


def at_beta(r: float, beta: float, delta: float | None = None) -> ModelParams:
    g_c, delta_c = critical_params(r)
    return ModelParams(
        delta=delta_c if delta is None else delta, g=g_c * math.sqrt(1 - beta * beta), r=r
    )


# ---------------------------------------------------------------- blocks

@pytest.mark.parametrize("q", [0.25, 0.75])
@pytest.mark.parametrize("parity", [+1, -1])
@pytest.mark.parametrize(
    "delta,g,r", [(0.7, 0.4, 0.6), (0.6, 0.76, 0.25), (0.0, 0.3, 1.0), (0.25, 0.625, 0.6)]
)
def test_block_matches_dense_projection(delta, g, r, parity, q):
    assert ed.verify_block_projection(
        ModelParams(delta=delta, g=g, r=r), parity, 14, q
    ) < 1e-12


@given(
    delta=st.floats(0.0, 2.0),
    frac=st.floats(0.0, 1.0),
    r=st.floats(0.0, 1.0),
    parity=st.sampled_from([+1, -1]),
    q=st.sampled_from([0.25, 0.75]),
)
def test_block_matches_dense_projection_everywhere(delta, frac, r, parity, q):
    # the closed-form block is the dense Hamiltonian's projection, up to g = g_c
    p = ModelParams(delta=delta, g=frac / (1.0 + r), r=r)
    assert ed.verify_block_projection(p, parity, 14, q) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    r=st.floats(0.0, 1.0),
    delta=st.floats(0.0, 2.0),
    frac=st.floats(0.05, 0.9),
    parity=st.sampled_from([+1, -1]),
)
def test_hellmann_feynman_block_coupling(r, delta, frac, parity):
    # dE0/dg = <0| dH/dg |0> holds exactly in the truncated block
    g_c, n = 1.0 / (1.0 + r), 96
    g, h = frac * g_c, 1e-5 * g_c

    def e0(coupling: float) -> float:
        return ed.lowest_level(ModelParams(delta=delta, g=coupling, r=r), parity, n)

    block = ed.build_parity_block(ModelParams(delta=delta, g=g, r=r), parity, n)
    assert np.allclose(block.offdiag, g * block.coupling, rtol=1e-15, atol=0.0)
    _, v = eigh_tridiagonal(block.diag, block.offdiag, select="i", select_range=(0, 0))
    expected = float(v[:, 0] @ ed.tridiag_apply(np.zeros(n), block.coupling, v[:, 0]))
    central = (e0(g + h) - e0(g - h)) / (2.0 * h)
    assert abs(central - expected) < 1e-6 * max(1.0, abs(expected))


def test_block_first_offdiagonal():
    p = ModelParams(delta=0.3, g=0.2, r=0.6)
    t_minus = ed.build_parity_block(p, -1, 4).offdiag[0]
    t_plus = ed.build_parity_block(p, +1, 4).offdiag[0]
    assert t_minus == pytest.approx(math.sqrt(2) * 0.2 * 0.6, rel=1e-14)
    assert t_plus == pytest.approx(math.sqrt(2) * 0.2, rel=1e-14)


def test_blocks_identical_for_isotropic_zero_delta():
    p = ModelParams(delta=0.0, g=0.3, r=1.0)
    bp = ed.build_parity_block(p, +1, 32)
    bm = ed.build_parity_block(p, -1, 32)
    assert np.array_equal(bp.diag, bm.diag)
    assert np.array_equal(bp.offdiag, bm.offdiag)


def test_ground_state_parity_minus_at_zero_coupling():
    p = ModelParams(delta=1.0, g=0.0, r=0.6)
    minus = ed.ed_spectrum(p, SectorSpec(0.25, -1), k=2)
    plus = ed.ed_spectrum(p, SectorSpec(0.25, +1), k=2)
    assert minus.energies[0] == pytest.approx(-0.5, abs=1e-13)
    assert plus.energies[0] > minus.energies[0]


# ---------------------------------------------------------------- spectra

def test_zero_coupling_spectrum_exact_set():
    p = ModelParams(delta=1.0, g=0.0, r=0.6)
    spec = ed.full_spectrum(p, k=6)
    exact = sorted(2 * n + s * 0.5 for n in range(6) for s in (+1, -1))
    assert np.abs(spec.energies - exact).max() < 1e-12
    assert spec.converged.all()
    assert list(spec.energies) == sorted(spec.energies)


def test_same_parity_gap_near_collapse():
    spec = ed.ed_spectrum(at_beta(0.6, 0.1), SectorSpec(0.25, -1), k=2)
    gap = spec.energies[1] - spec.energies[0]
    assert abs(gap - 0.2) / 0.2 < 0.06  # deviation ~ Delta_c^2/2 + O(beta)


def test_collapse_point_gap_doubles_until_gate_holds():
    g_c, delta_c = critical_params(0.25)
    p = ModelParams(delta=delta_c - 0.2, g=g_c, r=0.25)
    gap, n_max, converged = ed.collapse_point_gap(p, 256, 8192)
    assert converged and n_max == 4096  # algebraic convergence: 256 is too small
    half = abs(ed.lowest_level(p, +1, 2048) - ed.lowest_level(p, -1, 2048))
    assert gap == abs(ed.lowest_level(p, +1, 4096) - ed.lowest_level(p, -1, 4096))
    assert abs(gap - half) <= 0.02 * gap
    # a ceiling below the needed truncation reports the gate as failed
    gap, n_max, converged = ed.collapse_point_gap(p, 256, 2048)
    assert not converged and n_max == 2048


def test_converge_climbs_rungs_until_held():
    rungs = []

    def solve(n: int) -> float:
        rungs.append(n)
        return 1.0 / n

    def held(new: float, old: float) -> bool:
        return abs(new - old) < 1e-3

    # |1/n - 2/n| = 1/n < 1e-3 first holds at n = 1024
    assert ed.converge(solve, 8, 1 << 20, held) == (1 / 1024, 1 / 512, 1024)
    assert rungs == [8 << i for i in range(8)]


def test_converge_never_solves_above_the_ceiling():
    rungs = []

    def solve(n: int) -> float:
        rungs.append(n)
        return 1.0 / n

    new, old, n_max = ed.converge(solve, 8, 100, lambda new, old: False)
    assert rungs == [8, 16, 32, 64] and (new, old, n_max) == (1 / 64, 1 / 32, 64)
    rungs.clear()
    assert ed.converge(solve, 50, 100, lambda new, old: False) == (1 / 100, 1 / 50, 100)
    assert rungs == [50, 100]


def test_converge_reports_no_old_when_one_rung_fits():
    rungs = []
    new, old, n_max = ed.converge(lambda n: rungs.append(n) or n, 64, 127, lambda *_: True)
    assert (new, old, n_max) == (64, None, 64) and rungs == [64]


def test_ground_state_block_stays_within_its_ceiling(monkeypatch):
    sizes = []
    build = ed.build_parity_block

    def recording_build(params, parity, n_max, q=0.25):
        sizes.append(n_max)
        return build(params, parity, n_max, q)

    monkeypatch.setattr(ed, "build_parity_block", recording_build)
    _, coeffs, estimate, n_used = ed.ground_state_block(at_beta(0.6, 0.5), 64, n_max_ceiling=64)
    assert sizes == [64] and n_used == 64 and len(coeffs) == 64
    assert estimate == math.inf  # one rung gives no estimate, so callers' gates trip


@given(
    r=st.floats(0.0, 1.0),
    delta=st.floats(0.0, 2.0),
    frac=st.floats(0.0, 0.95),
    parity=st.sampled_from([+1, -1]),
    q=st.sampled_from([0.25, 0.75]),
    n=st.sampled_from([16, 32]),
)
def test_doubling_never_raises_the_lowest_levels(r, delta, frac, parity, q, n):
    # Cauchy interlacing: the n-block is a leading principal block of the
    # 2n-block, so no level rises when the truncation doubles
    p = ModelParams(delta=delta, g=frac / (1.0 + r), r=r)
    small = ed._lowest_block_eigenvalues(ed.build_parity_block(p, parity, n, q), 6)
    large = ed._lowest_block_eigenvalues(ed.build_parity_block(p, parity, 2 * n, q), 6)
    assert np.all(large - small <= 1e-12 * (1.0 + np.abs(small)))


@pytest.mark.parametrize("compute", [
    lambda p: ed.ed_ground_observables(p),
    lambda p: ed.conditional_photon_state(p, "qubit-down"),
    lambda p: ed.wigner_grid(p, points=9),
], ids=["observables", "conditional", "wigner"])
def test_ground_state_consumers_share_the_convergence_gate(compute):
    # 1 - g/g_c = 1e-8 needs more than the default 16384 ceiling
    g_c, delta_c = critical_params(0.6)
    with pytest.raises(ConvergenceError, match="ground state unconverged"):
        compute(ModelParams(delta=delta_c, g=g_c * (1 - 1e-8), r=0.6))


@pytest.mark.parametrize("compute,name", [
    (lambda p: ed.ed_spectrum(p, k=0), "k=0"),
    (lambda p: ed.full_spectrum(p, k=0), "k=0"),
    (lambda p: ed.qfi_spectral(p, k_states=0), "k_states=0"),
    (lambda p: ed.wigner_grid(p, points=1), "points=1"),
    (lambda p: ed.collapse_point_gap(p, 2, 64), "n_max=2"),
], ids=["ed_spectrum", "full_spectrum", "qfi_spectral", "wigner_grid", "collapse_point_gap"])
def test_bad_counts_rejected_early_by_name(compute, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= "):
        compute(ModelParams(delta=0.3, g=0.2, r=0.6))


def test_aa_deviation_grows_away_from_critical_line():
    r, beta = 0.6, 0.1
    devs = {}
    for delta in (0.25, 1.0):
        p = at_beta(r, beta, delta)
        spec = ed.ed_spectrum(p, SectorSpec(0.25, -1), k=6)
        aa_levels = [aa_energy(n, -1, p).energy for n in range(6)]
        devs[delta] = np.abs(spec.energies - aa_levels).max()
    assert devs[1.0] > 3 * devs[0.25]


def test_spectrum_levels_property():
    spec = ed.full_spectrum(ModelParams(delta=0.5, g=0.1, r=0.5), k=3)
    levels = spec.levels
    assert len(levels) == 6
    assert all(isinstance(p, int) for _, p, _ in levels)
    assert [e for e, _, _ in levels] == sorted(e for e, _, _ in levels)


# ---------------------------------------------------------------- squeezed frame

def test_squeezed_frame_zero_coupling_limit():
    p = ModelParams(delta=0.8, g=0.0, r=0.6)
    for parity in (+1, -1):
        spec = ed.squeezed_frame_spectrum(p, parity, 32, k=6)
        exact = sorted(2 * n + parity * (-1) ** n * 0.4 for n in range(8))[:6]
        assert np.abs(spec.energies - exact).max() < 1e-10


@pytest.mark.parametrize("beta", [0.5, 0.3])
def test_frame_equivalence(beta):
    p = at_beta(0.6, beta)
    for parity in (+1, -1):
        reference = ed.ed_spectrum(p, SectorSpec(0.25, parity), n_max=256, tol=1e-11, k=6)
        frame = ed.squeezed_frame_spectrum(p, parity, 480, k=6)
        diff = np.abs(frame.energies - reference.energies).max()
        # floor at the eigensolver residual scale 1e-10 ||A||
        allowed = max(frame.convergence_estimate.max(),
                      reference.convergence_estimate.max(),
                      1e-10 * np.abs(reference.energies).max())
        assert diff <= allowed
        assert diff < 1e-6


def test_squeezed_frame_wins_at_small_beta_moderate_accuracy():
    # near collapse the frame basis absorbs the squeezing: 6 levels to ~2e-2
    # at n_max=16, while bare Fock is still off by 0.14 at n_max=128
    p = at_beta(0.6, 0.05)
    reference = ed.ed_spectrum(p, SectorSpec(0.25, -1), n_max=1024, tol=1e-11, k=6)
    frame_err = np.abs(
        ed.squeezed_frame_spectrum(p, -1, 16, k=6).energies - reference.energies
    ).max()
    bare_err = np.abs(
        ed._lowest_block_eigenvalues(ed.build_parity_block(p, -1, 128), 6)
        - reference.energies
    ).max()
    assert frame_err < 2e-2
    assert bare_err > 2e-2


@pytest.mark.parametrize("parity", [+1, -1])
def test_squeezed_frame_builds_one_matrix(monkeypatch, parity):
    sizes = []
    build = ed.aa_matrix

    def recording_build(params, n_max):
        sizes.append(n_max)
        return build(params, n_max)

    monkeypatch.setattr(ed, "aa_matrix", recording_build)
    ed.squeezed_frame_spectrum(at_beta(0.6, 0.3), parity, 64)
    assert sizes == [64]  # the n_max/2 estimate reads the leading block


def test_squeezed_frame_imaginary_parts_negligible():
    spec = ed.squeezed_frame_spectrum(at_beta(0.6, 0.3), -1, 240, k=6)
    assert spec.n_max_used == 240  # flags come from the half-size estimate, not imag parts


# ---------------------------------------------------------------- observables

def test_ground_observables_zero_coupling():
    obs = ed.ed_ground_observables(ModelParams(delta=0.7, g=0.0, r=0.6), 32)
    assert obs.photon == pytest.approx(0.0, abs=1e-12)
    assert obs.sigma_x == pytest.approx(1.0, abs=1e-12)
    assert obs.dx == pytest.approx(1.0, abs=1e-12)
    assert obs.dp == pytest.approx(1.0, abs=1e-12)


def test_ground_observables_near_collapse():
    p = at_beta(0.6, 0.1)
    obs = ed.ed_ground_observables(p, 256)
    ref = aa_observables(p)
    assert abs(obs.photon - ref.photon) / ref.photon < 0.1  # O(beta)-level deviation
    assert abs(obs.sigma_x - ref.sigma_x) / ref.sigma_x < 0.1
    assert obs.dx == pytest.approx(obs.dp, rel=1e-12)  # <a^2> = 0 by parity
    assert obs.dx * obs.dp >= 1.0


# ---------------------------------------------------------------- QFI

def test_qfi_zero_coupling_single_level_formula():
    p = ModelParams(delta=0.6, g=0.0, r=0.25)
    assert ed.qfi_spectral(p) == pytest.approx(8 * 0.25**2 / (2 + 0.6) ** 2, rel=1e-10)
    assert ed.qfi_spectral(p) == pytest.approx(0.073964, rel=1e-4)


@pytest.mark.parametrize(
    "r,delta,gfrac", [(0.25, 0.6, 0.5), (0.6, None, 0.9), (0.25, None, 0.9)]
)
def test_qfi_fidelity_cross_check(r, delta, gfrac):
    g_c, delta_c = critical_params(r)
    p = ModelParams(delta=delta_c if delta is None else delta, g=gfrac * g_c, r=r)
    spectral = ed.qfi_spectral(p)
    oracle = ed.qfi_fidelity_oracle(p)
    assert abs(spectral - oracle) / spectral < 1e-3


@pytest.mark.parametrize("beta", [0.1, 0.05])
def test_qfi_matches_leading_form_near_collapse(beta):
    p = at_beta(0.6, beta)
    f_q = ed.qfi_spectral(p, n_max=512)
    assert abs(f_q - aa_qfi_leading(p)) / f_q < 3 * beta


def test_qfi_solves_the_final_ground_block_once(monkeypatch):
    p = at_beta(0.6, 0.3)
    diags = []
    solve = ed.eigh_tridiagonal

    def recording_solve(d, e, *args, **kwargs):
        diags.append(d)
        return solve(d, e, *args, **kwargs)

    monkeypatch.setattr(ed, "eigh_tridiagonal", recording_solve)
    ed.qfi_spectral(p)
    final = ed.build_parity_block(p, -1, max(len(d) for d in diags)).diag
    # the selection rule reuses the last rung's ground vector
    assert sum(np.array_equal(d, final) for d in diags) == 1


def test_fidelity_oracle_rejects_unconverged_ground_states():
    # the first state reaches the 16384 ceiling with an estimate of 6.4e-7
    g_c, delta_c = critical_params(0.6)
    p = ModelParams(delta=delta_c, g=g_c * (1 - 1e-7), r=0.6)
    with pytest.raises(ConvergenceError, match="ground state unconverged"):
        ed.qfi_fidelity_oracle(p, eps=1e-9)


def test_qfi_tail_gate_raises_when_starved():
    with pytest.raises(ConvergenceError):
        ed.qfi_spectral(at_beta(0.6, 0.3), n_max=64, k_states=2)


# ---------------------------------------------------------------- Wigner

def _hermite_psi(n, q):
    c = np.zeros(n + 1)
    c[n] = 1.0
    lognorm = -0.25 * math.log(math.pi) - 0.5 * (n * math.log(2) + gammaln(n + 1))
    return math.exp(lognorm) * hermval(q, c) * np.exp(-q * q / 2)


def _wigner_bruteforce(coeffs, x, p):
    """Position-integral Wigner of a pure Fock-superposition, same conventions.

    Coefficients below 1e-10 are dropped: hermval overflows around
    n ~ 120 at the integration range's edge, and those terms are far
    below the comparison tolerance anyway.
    """
    q, k = x / math.sqrt(2), p / math.sqrt(2)
    y = np.linspace(-12, 12, 4001)
    terms = [(n, c) for n, c in enumerate(coeffs) if abs(c) > 1e-10]
    plus = sum(c * _hermite_psi(n, q + y) for n, c in terms)
    minus = sum(c * _hermite_psi(n, q - y) for n, c in terms)
    val = np.trapezoid(np.exp(-2j * k * y) * plus * np.conj(minus), y) / np.pi
    return float(np.real(val)) / 2.0


def test_wigner_vacuum_closed_form():
    p = ModelParams(delta=0.3, g=0.0, r=0.25)
    grid = ed.wigner_grid(p, n_max=16, conditioning="reduced", half_width=7.0, points=141)
    assert grid.normalization == pytest.approx(1.0, abs=1e-3)
    centre = grid.values[70, 70]
    assert centre == pytest.approx(1.0 / (2 * math.pi), rel=1e-10)
    X, P = np.meshgrid(grid.x_axis, grid.p_axis)
    expected = np.exp(-(X**2 + P**2) / 2) / (2 * math.pi)
    assert np.abs(grid.values - expected).max() < 1e-10


def test_wigner_matches_position_integral_oracle():
    p = ModelParams(delta=0.6, g=0.95 * 0.8, r=0.25)
    grid = ed.wigner_grid(p, n_max=128, conditioning="qubit-down", points=41)
    cond = ed.conditional_photon_state(p, "qubit-down", 128)
    for (i, j) in [(20, 20), (10, 25), (25, 10), (30, 30), (5, 18)]:
        ref = _wigner_bruteforce(cond, grid.x_axis[j], grid.p_axis[i])
        assert grid.values[i, j] == pytest.approx(ref, abs=5e-9)


def test_wigner_moments_match_observables():
    p = ModelParams(delta=0.6, g=0.95 * 0.8, r=0.25)
    grid = ed.wigner_grid(p, n_max=128, conditioning="reduced")
    obs = ed.ed_ground_observables(p, 128)
    X, P = np.meshgrid(grid.x_axis, grid.p_axis)
    m2x = np.trapezoid(np.trapezoid(grid.values * X**2, grid.x_axis, axis=1), grid.p_axis)
    m2p = np.trapezoid(np.trapezoid(grid.values * P**2, grid.x_axis, axis=1), grid.p_axis)
    assert grid.normalization == pytest.approx(1.0, abs=1e-3)
    assert m2x == pytest.approx(obs.dx**2, rel=1e-2)
    assert m2p == pytest.approx(obs.dp**2, rel=1e-2)


def test_wigner_conditional_orientation():
    # qubit-down component is the x-elongated squeezed branch
    p = ModelParams(delta=0.6, g=0.95 * 0.8, r=0.25)
    grid = ed.wigner_grid(p, n_max=128, conditioning="qubit-down")
    X, P = np.meshgrid(grid.x_axis, grid.p_axis)
    m2x = np.trapezoid(np.trapezoid(grid.values * X**2, grid.x_axis, axis=1), grid.p_axis)
    m2p = np.trapezoid(np.trapezoid(grid.values * P**2, grid.x_axis, axis=1), grid.p_axis)
    assert m2x > 5 * m2p


def test_reduced_wigner_is_the_weighted_conditional_mixture():
    # tracing out the qubit mixes the two conditional states by their weights
    p = ModelParams(delta=0.6, g=0.95 * 0.8, r=0.25)
    up, dn = ed.block_to_spinfock(ed.ground_state_block(p, 128)[1], -1)
    grids = {c: ed.wigner_grid(p, n_max=128, conditioning=c, points=41, half_width=12.0).values
             for c in ("reduced", "qubit-up", "qubit-down")}
    mixture = (up @ up) * grids["qubit-up"] + (dn @ dn) * grids["qubit-down"]
    assert np.abs(grids["reduced"] - mixture).max() < 1e-13


def test_reduced_wigner_evaluates_each_density_entry_once(monkeypatch):
    # Z4 leaves rho_mn nonzero only for m - n = 0 mod 4; each such pair costs one kernel
    calls = []
    laguerre = ed.eval_genlaguerre

    def counting(n, alpha, x):
        calls.append((n, alpha))
        return laguerre(n, alpha, x)

    monkeypatch.setattr(ed, "eval_genlaguerre", counting)
    g_c, delta_c = critical_params(0.25)
    p = ModelParams(delta=delta_c, g=0.95 * g_c, r=0.25)
    ed.wigner_grid(p, n_max=128, conditioning="reduced", points=21)
    up, dn = ed.block_to_spinfock(ed.ground_state_block(p, 128)[1], -1)
    support = int(np.nonzero(np.abs(up) + np.abs(dn) > 1e-14)[0].max()) + 1
    allowed = sum(1 for m in range(0, support, 2) for n in range(0, m + 1, 4))
    assert 0 < len(calls) <= allowed
    assert len(set(calls)) == len(calls)


def test_wigner_narrow_grid_rejected():
    p = ModelParams(delta=0.6, g=0.95 * 0.8, r=0.25)
    with pytest.raises(ValueError, match="boundary"):
        ed.wigner_grid(p, n_max=128, half_width=2.0)


def test_conditional_projection_norms():
    p = ModelParams(delta=0.6, g=0.7, r=0.25)
    _, coeffs, _, _ = ed.ground_state_block(p, 64)
    up, dn = ed.block_to_spinfock(coeffs, -1)
    assert float(up @ up) == pytest.approx(0.5, abs=1e-12)
    assert float(dn @ dn) == pytest.approx(0.5, abs=1e-12)


def test_conditional_state_approaches_squeezed_vacuum():
    # fidelity to the frame squeezed vacuum is high but saturates below
    # 0.999 at g = 0.95 g_c (finite uncertainty excess); it improves with g
    r = 0.25
    g_c, delta_c = critical_params(r)
    fids = {}
    for gfrac in (0.95, 0.99):
        p = ModelParams(delta=delta_c, g=gfrac * g_c, r=r)
        theta = geometry(p).theta
        cond = ed.conditional_photon_state(p, "qubit-down", 256)
        even = np.arange(0, len(cond), 2)
        sq = ed.squeezed_vacuum_coeffs(theta, len(even))
        fids[gfrac] = abs(float(cond[even] @ sq))
    assert 0.98 < fids[0.95] < 0.999
    assert fids[0.99] > fids[0.95]
