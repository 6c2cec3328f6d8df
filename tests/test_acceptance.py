"""Acceptance suite: one test per quantitative claim, tolerances pinned.

Each test prints a PASS/FAIL line with the measured numbers (run with
``pytest -s tests/test_acceptance.py`` to see them as they complete).
Criteria 01, 05, 08, 09 and 10 are implemented exactly as stated and
fail for documented numerical reasons; the printed diagnostics carry the
measured values and the companion checks that pin down the true behavior.
See the acceptance table in ACCEPTANCE.md.
"""

import math

import numpy as np
import pytest

from tpqrm import aa, ed
from tpqrm.analysis import fit_powerlaw, fit_quadratic_gap, make_grid
from tpqrm.collapse1d import (
    Collapse1DProblem,
    bound_states,
    collapse_hamiltonian_check,
    geometric_ratio_theory,
)
from tpqrm.model import ModelParams, SectorSpec, critical_params, geometry
from tpqrm.quench import adiabatic_reference, kz_predict, kz_sweep
from tpqrm.specfun import squeeze_matrix


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def _gap_sweep(r: float, x_lo: float, x_hi: float, n: int = 9):
    g_c, delta_c = critical_params(r)
    grid = make_grid(x_lo, x_hi, n, r)
    u, sp, dp = [], [], []
    for x, g in zip(grid.x_values, grid.g_values):
        p = ModelParams(delta=delta_c, g=g, r=r)
        minus = ed.ed_spectrum(p, SectorSpec(0.25, -1), n_max=256, tol=1e-10, k=2)
        plus = ed.ed_spectrum(p, SectorSpec(0.25, +1), n_max=256, tol=1e-10, k=2)
        assert minus.converged.all() and plus.converged.all()
        u.append(1.0 - g / g_c)
        sp.append(minus.energies[1] - minus.energies[0])
        dp.append(abs(plus.energies[0] - minus.energies[0]))
    return np.array(u), np.array(sp), np.array(dp)


SWEEPS = {r: _gap_sweep(r, 1.5, 3.0) for r in (0.25, 0.60)}


def test_criterion_01_soft_mode_exponent():
    """eps_sp ~ |g - g_c|^(1/2) fit over the pinned window x in [1.5, 3.0]."""
    measured = {}
    deep = {}
    for r in (0.25, 0.60):
        u, sp, _ = SWEEPS[r]
        measured[r] = fit_powerlaw(u, sp).exponent
        u2, sp2, _ = _gap_sweep(r, 2.5, 4.5, 7)
        deep[r] = fit_powerlaw(u2, sp2).exponent
    ok = all(abs(measured[r] - 0.5) <= 0.02 for r in measured)
    report(
        1, ok,
        f"eps_sp exponents over x in [1.5, 3.0]: r=0.25 -> {measured[0.25]:+.4f}, "
        f"r=0.60 -> {measured[0.60]:+.4f} (required 0.50 +- 0.02). "
        f"Deeper window x in [2.5, 4.5] gives {deep[0.25]:+.4f} / {deep[0.60]:+.4f}: "
        "the exponent itself is right, but at r=0.25 the pinned window still carries "
        "the O(beta) amplitude corrections.",
    )
    for r in (0.25, 0.60):
        assert abs(measured[r] - 0.5) <= 0.02, (
            f"r={r}: eps_sp exponent {measured[r]:+.4f} outside 0.50 +- 0.02 over the "
            f"pinned window (deeper window gives {deep[r]:+.4f})"
        )


def test_criterion_02_parity_splitting_exponent():
    measured = {r: fit_powerlaw(SWEEPS[r][0], SWEEPS[r][2]).exponent for r in SWEEPS}
    ok = all(abs(measured[r] - 1.25) <= 0.05 for r in measured)
    report(
        2, ok,
        f"eps_dp exponents: r=0.25 -> {measured[0.25]:+.4f}, r=0.60 -> {measured[0.60]:+.4f} "
        "(required 1.25 +- 0.05)",
    )
    for r, value in measured.items():
        assert abs(value - 1.25) <= 0.05, f"r={r}: eps_dp exponent {value:+.4f}"


def test_criterion_03_observable_exponents():
    """Photon, polarization and quadrature exponents (window x in [3.5, 5.5],
    deep enough that the non-critical additive backgrounds are negligible)."""
    results = {}
    for r in (0.25, 0.60):
        g_c, delta_c = critical_params(r)
        grid = make_grid(3.5, 5.5, 7, r)
        u = 1.0 - grid.g_values / g_c
        rows = [
            ed.ed_ground_observables(ModelParams(delta=delta_c, g=g, r=r), 2048)
            for g in grid.g_values
        ]
        results[r] = {
            "photon": fit_powerlaw(u, [o.photon for o in rows]).exponent,
            "sigma_x": fit_powerlaw(u, [o.sigma_x for o in rows]).exponent,
            "dx": fit_powerlaw(u, [o.dx for o in rows]).exponent,
            "dp": fit_powerlaw(u, [o.dp for o in rows]).exponent,
        }
    targets = {"photon": -0.50, "sigma_x": +0.25, "dx": -0.25, "dp": -0.25}
    ok = all(
        abs(results[r][k] - t) <= 0.02 for r in results for k, t in targets.items()
    )
    report(3, ok, "; ".join(
        f"r={r}: " + ", ".join(f"{k}={results[r][k]:+.4f}" for k in targets)
        for r in results
    ) + " (required -0.50/+0.25/-0.25/-0.25, all +- 0.02)")
    for r in results:
        for k, t in targets.items():
            assert abs(results[r][k] - t) <= 0.02, f"r={r} {k}: {results[r][k]:+.4f}"


def test_criterion_04_qfi_divergence_and_oracle():
    exps = {}
    for r in (0.25, 0.60):
        g_c, delta_c = critical_params(r)
        grid = make_grid(2.5, 4.5, 7, r)
        u = 1.0 - grid.g_values / g_c
        f_q = [
            ed.qfi_spectral(ModelParams(delta=delta_c, g=g, r=r), n_max=2048)
            for g in grid.g_values
        ]
        exps[r] = fit_powerlaw(u, f_q).exponent

    oracle_devs = []
    for (r, delta, gfrac) in [(0.25, 0.6, 0.5), (0.6, None, 0.9), (0.25, None, 0.9)]:
        g_c, delta_c = critical_params(r)
        p = ModelParams(delta=delta_c if delta is None else delta, g=gfrac * g_c, r=r)
        spectral = ed.qfi_spectral(p)
        fidelity = ed.qfi_fidelity_oracle(p)
        oracle_devs.append(abs(spectral - fidelity) / spectral)

    ok = all(abs(exps[r] + 2.0) <= 0.05 for r in exps) and max(oracle_devs) < 1e-3
    report(
        4, ok,
        f"F_Q exponents: r=0.25 -> {exps[0.25]:+.4f}, r=0.60 -> {exps[0.60]:+.4f} "
        f"(required -2.00 +- 0.05); fidelity-oracle deviations "
        f"{[f'{d:.2e}' for d in oracle_devs]} (required < 1e-3)",
    )
    for r, value in exps.items():
        assert abs(value + 2.0) <= 0.05, f"r={r}: F_Q exponent {value:+.4f}"
    assert max(oracle_devs) < 1e-3


def test_criterion_05_aa_asymptotic_exactness():
    """|E_ED - E_AA| vs beta for the lowest 6 levels: required slope >= 3.5.

    The measured slope is 1.0: the exact spectrum near the critical line is
    E_n = (2n + 1/2) beta sqrt(1 - Delta_c^2) - 1/2 +- M_nn + O(beta^2),
    i.e. the closed form misses a frequency renormalization sourced by the
    manifold-coupling tail at m ~ 1/beta^2, which the small-beta expansion
    (valid at fixed |m - n|) cannot see.  Per level, (E_AA - E_ED) /
    ((2n + 1/2) beta) tends to 1 - sqrt(1 - Delta_c^2) (0.031754 at
    r = 0.6), not to Delta_c^2/2 (0.03125).  The banded second-order sum
    reproduces the expansion's O(beta^4) scaling; the exponents of every
    other criterion are untouched by the prefactor.
    """
    r = 0.60
    g_c, delta_c = critical_params(r)
    betas = np.geomspace(0.02, 0.2, 6)
    devs = []
    for beta in betas:
        p = ModelParams(delta=delta_c, g=g_c * math.sqrt(1 - beta**2), r=r)
        spec = ed.full_spectrum(p, n_max=512, tol=1e-11, k=3)
        aa_levels = np.sort(
            [aa.aa_energy(int(i), int(pp), p).energy
             for i, pp in zip(spec.indices, spec.parities)]
        )
        devs.append(np.abs(np.sort(spec.energies) - aa_levels).max())
    slope = float(np.polyfit(np.log(betas), np.log(devs), 1)[0])

    # companion facts: the banded perturbative sum does scale as beta^4,
    # and the deviation coefficient is the 1 - sqrt(1 - Delta_c^2) renormalization
    banded = [
        abs(aa.second_order_corrections(
            ModelParams(delta=delta_c, g=g_c * math.sqrt(1 - b**2), r=r), 0)[1])
        for b in betas
    ]
    banded_slope = float(np.polyfit(np.log(betas), np.log(banded), 1)[0])
    coeff = devs[0] / (4.5 * 0.02)  # merged lowest 6 peak at manifold n=2: (2n+1/2) = 4.5

    ok = slope >= 3.5
    report(
        5, ok,
        f"log-log slope of |E_ED - E_AA| over beta in [0.02, 0.2]: {slope:.3f} "
        f"(required >= 3.5). Deviation ~ (1 - sqrt(1 - Delta_c^2))(2n+1/2) beta: coefficient "
        f"{coeff:.4f} vs 1 - sqrt(1 - Delta_c^2) = {1 - math.sqrt(1 - delta_c**2):.4f}; "
        f"banded second-order sum "
        f"slope {banded_slope:.2f} (the expansion's beta^4 claim, window-limited)",
    )
    assert banded_slope >= 3.5  # the truncated-coupling scaling is real
    assert slope >= 3.5, (
        f"measured slope {slope:.3f}: the closed-form levels carry an O(beta) "
        "frequency renormalization; asymptotic exactness in the stated sense fails"
    )


def test_criterion_06_gap_opening_quadratic():
    results, reached = {}, {}
    for r in (0.25, 0.60):
        g_c, delta_c = critical_params(r)
        offsets = np.linspace(0.06, 0.11, 6)
        deltas, gaps, n_maxes = [], [], []
        for off in offsets:
            # n_max doubles from 65536 until the 2% gate against n_max/2 holds
            p = ModelParams(delta=delta_c - off, g=g_c, r=r)
            gap, n_max, converged = ed.collapse_point_gap(p, 65536, 262144)
            assert converged, "collapse-point gap unconverged"
            deltas.append(delta_c - off)
            gaps.append(gap)
            n_maxes.append(n_max)
        results[r] = fit_quadratic_gap(deltas, gaps, delta_c)
        reached[r] = n_maxes
    ok = all(f.r_squared > 0.999 for f in results.values())
    report(
        6, ok,
        f"eps_dp vs (Delta - Delta_c)^2 at g = g_c, window |delta| in [0.06, 0.11]: "
        f"r=0.25 -> r^2 = {results[0.25].r_squared:.6f} (coeff {results[0.25].exponent:.4f}), "
        f"r=0.60 -> r^2 = {results[0.60].r_squared:.6f} (coeff {results[0.60].exponent:.4f}) "
        "(required r^2 > 0.999); n_max reached per offset: "
        + ", ".join(f"r={r}: {reached[r]}" for r in reached),
    )
    for r, fit in results.items():
        assert fit.r_squared > 0.999, f"r={r}: r^2 = {fit.r_squared:.6f}"


@pytest.mark.slow
def test_criterion_07_kibble_zurek():
    r = 0.25
    g_c, delta_c = critical_params(r)

    # impulse regime: g_f one part in 10^6 below collapse
    g_f = (1.0 - 1e-6) * g_c
    params = ModelParams(delta=delta_c, g=g_f, r=r)
    taus = list(np.logspace(1.0, 3.0, 5))
    table = kz_sweep(g_f, taus, params, n_max=512)
    assert all(row["converged"] for row in table), table
    kz_fit = fit_powerlaw([row["tau_q"] for row in table], [row["e_r"] for row in table])

    # adiabatic regime: g_f = 0.99 g_c at large tau_q
    g_f2 = 0.99 * g_c
    params2 = ModelParams(delta=delta_c, g=g_f2, r=r)
    taus2 = [1000.0, 3162.3, 10000.0]
    table2 = kz_sweep(g_f2, taus2, params2, n_max=256)
    assert all(row["converged"] for row in table2), table2
    # three points: fit the line in (log tau_q, log E_r) directly, since
    # fit_powerlaw asks for at least five
    ad_slope = float(np.polyfit(
        np.log([row["tau_q"] for row in table2]), np.log([row["e_r"] for row in table2]), 1
    )[0])
    ratios = [row["e_r"] / kz_predict(row["tau_q"], params2).e_r_adiabatic for row in table2]
    ratio = ratios[-1]
    # the exact end-point term, a diagnosis only: the bounds stay on the closed form.
    # tau_q enters it only as the prefactor tau_q^-2, so chi_3 is solved once
    ref_last = adiabatic_reference(g_f2, taus2[-1], params2)
    references = [ref_last * (taus2[-1] / row["tau_q"]) ** 2 for row in table2]
    ref_over_closed = ref_last / kz_predict(taus2[-1], params2).e_r_adiabatic

    ok = (
        abs(kz_fit.exponent + 1.0 / 3.0) <= 0.05
        and abs(ad_slope + 2.0) <= 0.1
        and abs(ratio - 1.0) <= 0.2
    )
    report(
        7, ok,
        f"KZ slope over tau_q in [1e1, 1e3] at g_f = (1-1e-6) g_c: {kz_fit.exponent:+.4f} "
        f"(required -0.333 +- 0.05); adiabatic slope over [1e3, 1e4] at 0.99 g_c: "
        f"{ad_slope:+.4f} (required -2.0 +- 0.1); closed-form ratio at tau_q = 1e4: "
        f"{ratio:.3f} (required within 20%); ratio at each adiabatic tau_q: "
        f"{[round(x, 3) for x in ratios]} (a drift means the window is pre-asymptotic, "
        "see ACCEPTANCE.md); adiabatic reference (g_f/tau_q)^2 chi_3 / closed form: "
        f"{ref_over_closed:.6f} vs its g -> g_c limit (1 - Delta_c^2)^(-1/2) = "
        f"{1 / math.sqrt(1 - delta_c**2):.6f}; E_r / reference at each adiabatic tau_q: "
        f"{[round(row['e_r'] / ref, 3) for row, ref in zip(table2, references)]}",
    )
    assert abs(kz_fit.exponent + 1.0 / 3.0) <= 0.05, f"KZ slope {kz_fit.exponent:+.4f}"
    assert abs(ad_slope + 2.0) <= 0.1, (
        f"adiabatic slope {ad_slope:+.4f} over [1e3, 1e4]: E_r / closed form "
        f"drifts {[round(x, 3) for x in ratios]} across the window"
    )
    assert abs(ratio - 1.0) <= 0.2, f"E_r / closed form at tau_q = 1e4: {ratio:.3f}"


def test_criterion_08_exact_limits():
    # (a) decoupled spectrum
    p0 = ModelParams(delta=1.0, g=0.0, r=0.6)
    spec = ed.full_spectrum(p0, k=6)
    exact = sorted(2 * n + s * 0.5 for n in range(6) for s in (+1, -1))
    dev_spectrum = float(np.abs(spec.energies - exact).max())

    # (b) isotropic zero-Delta parity degeneracy
    worst_dp, min_sp = 0.0, np.inf
    for g in (0.2, 0.3, 0.4):
        p = ModelParams(delta=0.0, g=g, r=1.0)
        minus = ed.ed_spectrum(p, SectorSpec(0.25, -1), k=2, tol=1e-11)
        plus = ed.ed_spectrum(p, SectorSpec(0.25, +1), k=2, tol=1e-11)
        worst_dp = max(worst_dp, abs(plus.energies[0] - minus.energies[0]))
        min_sp = min(min_sp, minus.energies[1] - minus.energies[0])

    # (c) two-frame equivalence at the module-invariant test points
    frame_ok = True
    for beta in (0.5, 0.3):
        g_c, delta_c = critical_params(0.6)
        p = ModelParams(delta=delta_c, g=g_c * math.sqrt(1 - beta**2), r=0.6)
        for parity in (+1, -1):
            reference = ed.ed_spectrum(p, SectorSpec(0.25, parity), n_max=256, tol=1e-11, k=6)
            frame = ed.squeezed_frame_spectrum(p, parity, 480, k=6)
            diff = np.abs(frame.energies - reference.energies).max()
            allowed = max(frame.convergence_estimate.max(),
                          reference.convergence_estimate.max(),
                          1e-10 * np.abs(reference.energies).max())
            frame_ok &= bool(diff <= allowed)

    # (d) squeeze orthogonality at the literal invariant configuration
    sq_errs = {}
    for theta in (0.3, 0.7, 1.5):
        plus_m = squeeze_matrix(theta, 120, +1).entries
        minus_m = squeeze_matrix(theta, 120, -1).entries
        prod = plus_m @ minus_m
        sq_errs[theta] = float(np.abs(prod[:60, :60] - np.eye(60)).max())
    sq_ok = all(err < 1e-8 for err in sq_errs.values())

    ok = dev_spectrum < 1e-12 and worst_dp < 1e-10 and min_sp > 0 and frame_ok and sq_ok
    report(
        8, ok,
        f"g=0 spectrum dev {dev_spectrum:.1e} (< 1e-12); isotropic degeneracy "
        f"eps_dp {worst_dp:.1e} (< 1e-10) with eps_sp {min_sp:.3f} > 0; two-frame "
        f"equivalence {'ok' if frame_ok else 'FAILED'}; squeeze orthogonality on the "
        f"n_max/2 interior at n_max=120: " + ", ".join(
            f"theta={t}: {e:.1e}" for t, e in sq_errs.items()
        ) + " (required < 1e-8; the squeezed image of row m is centered near "
        "m cosh(4 theta), so an interior that scales with n_max cannot converge; "
        "properly sized truncations reach 1e-13, see tests/test_specfun.py)",
    )
    assert dev_spectrum < 1e-12
    assert worst_dp < 1e-10 and min_sp > 0
    assert frame_ok
    assert sq_ok, f"interior-half-block orthogonality errors {sq_errs} exceed 1e-8"


@pytest.mark.slow
def test_criterion_09_isotropic_collapse():
    # Delta = 3 tower: consecutive-ratio plateau as literally required
    ladder = bound_states(Collapse1DProblem(delta=3.0, L=3200.0, h=0.0125), k=7)
    assert ladder.converged[:7].all(), ladder.binding_energies
    ratios = ladder.ratios[3:6]  # kappa4_(n+1)/kappa4_n for n = 3, 4, 5
    variation = float(np.std(ratios) / np.mean(ratios))

    # grid-refinement stability of the levels entering the ratios
    refined = bound_states(Collapse1DProblem(delta=3.0, L=6400.0, h=0.0125), k=7)
    stab = float(np.abs(ladder.binding_energies[:7] / refined.binding_energies[:7] - 1).max())

    # companion fact: same-parity ratios do plateau on the tail value
    same_parity = ladder.binding_energies[4:7] / ladder.binding_energies[2:5]
    sp_var = float(np.std(same_parity) / np.mean(same_parity))
    theory = geometric_ratio_theory(3.0)

    # Delta = 0: no bound states, continuum forming above the threshold
    empty = bound_states(Collapse1DProblem(delta=0.0, L=100.0, h=0.05), k=4)
    no_bound = bool(np.isnan(empty.binding_energies).all())
    continuum = collapse_hamiltonian_check(0.0, n_max=8192)

    ok = variation < 0.01 and stab < 5e-3 and no_bound and continuum.consistent
    report(
        9, ok,
        f"consecutive ratios over n in {{3,4,5}}: {np.round(ratios, 5).tolist()}, "
        f"variation {variation:.3f} (required < 0.01): the tower is two interleaved "
        f"geometric ladders, so consecutive ratios alternate persistently; same-parity "
        f"ratios plateau at {same_parity.mean():.6f} (+- {sp_var:.1%}) vs tail theory "
        f"{theory:.6f}; refinement stability {stab:.1e}; Delta=0: zero bound states "
        f"{'ok' if no_bound else 'FAIL'}, spacing shrinks {continuum.spacings_by_n_max}",
    )
    assert stab < 5e-3
    assert no_bound and continuum.consistent
    assert sp_var < 0.01  # the true geometric accumulation
    assert variation < 0.01, (
        f"consecutive-ratio variation {variation:.3f}: alternation between the even- "
        "and odd-parity ladders never falls below ~3%"
    )


def test_criterion_10_wigner_consistency():
    r = 0.25
    g_c, delta_c = critical_params(r)
    p = ModelParams(delta=delta_c, g=0.95 * g_c, r=r)

    grid = ed.wigner_grid(p, n_max=128, conditioning="reduced")
    obs = ed.ed_ground_observables(p, 128)
    X, P = np.meshgrid(grid.x_axis, grid.p_axis)
    m2x = float(np.trapezoid(np.trapezoid(grid.values * X**2, grid.x_axis, axis=1), grid.p_axis))
    m2p = float(np.trapezoid(np.trapezoid(grid.values * P**2, grid.x_axis, axis=1), grid.p_axis))
    norm_dev = abs(grid.normalization - 1.0)
    mom_dev = max(abs(m2x / obs.dx**2 - 1.0), abs(m2p / obs.dp**2 - 1.0))

    theta = geometry(p).theta
    cond = ed.conditional_photon_state(p, "qubit-down", 256)
    even = np.arange(0, len(cond), 2)
    sq = ed.squeezed_vacuum_coeffs(theta, len(even))
    fidelity = abs(float(cond[even] @ sq))

    # uncertainty product of the conditional state itself
    f = np.arange(len(cond), dtype=float)
    ph = float(f @ cond**2)
    shifted = np.zeros_like(cond)
    shifted[:-2] = np.sqrt((f[:-2] + 1) * (f[:-2] + 2)) * cond[2:]
    a2 = float(cond @ shifted)
    cond_product = math.sqrt((1 + 2 * ph + 2 * a2) * (1 + 2 * ph - 2 * a2))

    ok = norm_dev < 1e-3 and mom_dev < 0.01 and fidelity > 0.999
    report(
        10, ok,
        f"reduced Wigner normalization dev {norm_dev:.1e} (< 1e-3), second-moment dev "
        f"{mom_dev:.2e} (< 1e-2); qubit-down fidelity vs frame squeezed vacuum at "
        f"g = 0.95 g_c: {fidelity:.6f} (required > 0.999; the conditional state keeps "
        f"a finite uncertainty excess dx dp = {cond_product:.3f} and the fidelity "
        "saturates ~0.9964 even at g -> g_c, see ACCEPTANCE.md)",
    )
    assert norm_dev < 1e-3
    assert mom_dev < 0.01
    assert fidelity > 0.999, (
        f"fidelity {fidelity:.6f} at g = 0.95 g_c: the ED conditional state is "
        "squeezed-vacuum-like but not the frame squeezed vacuum to 0.999"
    )
