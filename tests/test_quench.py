import math
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import zgtsv

from tpqrm.errors import ConvergenceError
from tpqrm.model import ModelParams, critical_params
from tpqrm.quench import (
    QuenchProtocol,
    StartBound,
    adiabatic_reference,
    ground_energy_final,
    kz_predict,
    kz_sweep,
    propagate,
)
from tpqrm import ed, quench
from tpqrm.model import SectorSpec

R = 0.25
G_C, DELTA_C = critical_params(R)


def test_protocol_validation_and_defaults():
    protocol = QuenchProtocol(g_f=0.5 * G_C, tau_q=100.0, r=R)
    short = QuenchProtocol(g_f=0.5 * G_C, tau_q=5.0, r=R)
    assert protocol.delta == DELTA_C
    # above a tenth of the 1% gate, B = inf included, the Pade phase bound
    # (72 / (tau_q omega01^5))^(1/4), omega01 = 2 + Delta_c, whatever gap_f and chi_3 are
    phase = (72.0 / (100.0 * (2.0 + DELTA_C) ** 5)) ** 0.25
    assert protocol.default_dt(StartBound(math.inf)) == pytest.approx(phase, rel=1e-12)
    assert protocol.default_dt(StartBound(1.0, 0.2, 1.0)) == pytest.approx(phase, rel=1e-12)
    assert short.default_dt(StartBound(1.0)) == pytest.approx(0.05)
    # below it and adiabatic at g_f, (g_f/tau_q)^2 chi_3 <= gap_f: the same bound on gap_f
    soft = StartBound(1e-3, gap_f=1.0, chi_3=1.0)
    assert protocol.default_dt(soft) == pytest.approx(0.72**0.25, rel=1e-12)
    assert short.default_dt(soft) == pytest.approx(0.05)
    # below it and impulsive at g_f: min(1, tau_q/100)
    impulse = StartBound(0.0, gap_f=0.2, chi_3=1e20)
    assert protocol.default_dt(impulse) == 1.0
    assert QuenchProtocol(g_f=0.5 * G_C, tau_q=1e7, r=R).default_dt(impulse) == 1.0
    assert short.default_dt(impulse) == pytest.approx(0.05)
    # start_dt solves for B: 0.65 at 0.5 g_c; 9.3e-4 at 0.99 g_c, where tau_q = 100 is
    # adiabatic and the gap_f bound, 11.6, is capped at tau_q/100; 2.5e-9 at
    # (1 - 1e-6) g_c, where the end-point term is 1e9 to 1e11 times gap_f (impulsive)
    assert protocol.start_dt() == protocol.default_dt(StartBound(math.inf))
    assert QuenchProtocol(g_f=0.99 * G_C, tau_q=100.0, r=R).start_dt() == 1.0
    for tau_q in (1e2, 1e3):
        assert QuenchProtocol(g_f=(1 - 1e-6) * G_C, tau_q=tau_q, r=R).start_dt() == 1.0
    assert QuenchProtocol(g_f=0.5 * G_C, tau_q=100.0, r=R, dt=0.3).start_dt() == 0.3
    with pytest.raises(ValueError):
        QuenchProtocol(g_f=G_C, tau_q=10.0, r=R)
    with pytest.raises(ValueError):
        QuenchProtocol(g_f=0.5 * G_C, tau_q=-1.0, r=R)
    for field, bad in (("tau_q", math.nan), ("tau_q", math.inf), ("delta", math.nan),
                       ("dt", math.inf)):
        with pytest.raises(ValueError, match=f"{field}={bad} must be finite"):
            QuenchProtocol(**{"g_f": 0.5 * G_C, "tau_q": 10.0, "r": R, field: bad})
    for bad in (0.0, -0.1):  # a step of tau_q would hold the halving gate trivially
        with pytest.raises(ValueError, match=f"^dt={bad} must be finite and positive$"):
            QuenchProtocol(g_f=0.5 * G_C, tau_q=50.0, r=R, dt=bad)
    for bad, message in ((8.5, "n_max=8.5 must be an integer"),
                         (True, "n_max=True must be an integer"), (1, "n_max=1 must be >= 2")):
        with pytest.raises(ValueError, match=f"^{message}"):
            QuenchProtocol(g_f=0.5 * G_C, tau_q=10.0, r=R, n_max=bad)
    assert QuenchProtocol(g_f=0.5 * G_C, tau_q=10.0, r=R, n_max=np.int64(64)).n_max == 64


def test_kz_predict_freezeout_and_scalings():
    pred = kz_predict(100.0, ModelParams(delta=DELTA_C, g=0.9 * G_C, r=R))
    expected_gk = G_C * (1.0 - (400.0 * math.sqrt(2.0)) ** (-2.0 / 3.0))
    assert pred.g_k == pytest.approx(expected_gk, rel=1e-12)
    assert pred.g_k / G_C == pytest.approx(0.9853799, abs=1e-7)

    huge = kz_predict(1e12, ModelParams(delta=DELTA_C, g=0.9 * G_C, r=R))
    assert huge.g_k / G_C == pytest.approx(1.0, abs=1e-7)

    # frozen-regime form is a pure tau^(-1/3) law
    p = ModelParams(delta=DELTA_C, g=0.9 * G_C, r=R)
    ratio = kz_predict(800.0, p).e_r_kz / kz_predict(100.0, p).e_r_kz
    assert ratio == pytest.approx(0.5, rel=1e-12)

    # adiabatic form matches its closed expression
    gf = 0.99 * G_C
    pred = kz_predict(1000.0, ModelParams(delta=DELTA_C, g=gf, r=R))
    rr = (gf / G_C) ** 2
    assert pred.e_r_adiabatic == pytest.approx(1e-6 * rr / (16 * (1 - rr) ** 2.5), rel=1e-12)

    with pytest.raises(ValueError):
        kz_predict(0.5, p)


def test_adiabatic_reference_against_the_closed_form():
    # 1.523260 at 0.99 g_c (ACCEPTANCE.md, note 07); the ratio tends to
    # (1 - Delta_c^2)^(-1/2) as g_f -> g_c
    params = ModelParams(delta=DELTA_C, g=0.0, r=R)
    for frac, expected in ((0.99, 1.523260), (1 - 1e-6, 1 / math.sqrt(1 - DELTA_C**2))):
        g_f = frac * G_C
        ref = adiabatic_reference(g_f, 1e4, params)
        closed = kz_predict(1e4, ModelParams(delta=DELTA_C, g=g_f, r=R)).e_r_adiabatic
        assert ref / closed == pytest.approx(expected, rel=1e-3 if frac > 0.99 else 1e-6)
    assert adiabatic_reference(0.99 * G_C, 1e3, params) == pytest.approx(
        100 * adiabatic_reference(0.99 * G_C, 1e4, params), rel=1e-12)
    with pytest.raises(ValueError):
        adiabatic_reference(G_C, 1e4, params)
    with pytest.raises(ValueError):
        adiabatic_reference(0.5 * G_C, 0.0, params)


def test_ground_energy_final_matches_block_solver():
    protocol = QuenchProtocol(g_f=0.7 * G_C, tau_q=10.0, r=R)
    e0 = ground_energy_final(protocol)
    spec = ed.ed_spectrum(ModelParams(delta=DELTA_C, g=0.7 * G_C, r=R),
                          SectorSpec(0.25, -1), k=1, tol=1e-11)
    assert e0 == pytest.approx(spec.energies[0], abs=1e-9)


def test_ground_energy_final_raises_at_its_ceiling(monkeypatch):
    monkeypatch.setattr(quench, "_E0_CEILING", 256)  # one rung: no pair to hold the gate
    protocol = QuenchProtocol(g_f=0.7 * G_C, tau_q=10.0, r=R)
    with pytest.raises(ConvergenceError, match="^ground energy at g_f not converged to 1e-10"):
        ground_energy_final(protocol)
    # a sweep solves that record once and flags every row, before any step
    monkeypatch.setattr(quench, "zgtsv", None)  # any step would raise TypeError
    records = _count_calls(monkeypatch, quench, "abrupt_start_bound")
    table = kz_sweep(0.7 * G_C, [10.0, 20.0], ModelParams(delta=DELTA_C, g=0.0, r=R), dt=0.1)
    assert len(records) == 1
    assert [row["converged"] for row in table] == [False, False]
    assert all(math.isnan(row["e_r"]) for row in table)


def test_adiabatic_reference_raises_at_the_ladder_ceiling():
    # at 1 - g_f/g_c = 1e-7 chi_3 still moves by more than 1e-6 at n_max 16384
    params = ModelParams(delta=DELTA_C, g=0.0, r=R)
    with pytest.raises(ConvergenceError,
                       match="^chi_3 not stable to 1e-06 at truncation ceiling 16384$"):
        adiabatic_reference((1 - 1e-7) * G_C, 1e4, params)


def test_adiabatic_limit_residual_energy_vanishes():
    protocol = QuenchProtocol(g_f=0.4 * G_C, tau_q=200.0, r=R, n_max=128)
    res = propagate(protocol)
    assert res.residual_energy < 1e-6
    assert res.residual_energy > -1e-10
    assert res.norm_drift < 1e-9


def test_trajectory_samples():
    protocol = QuenchProtocol(g_f=0.8 * G_C, tau_q=40.0, r=R, n_max=128, dt=0.002)
    res = propagate(protocol, n_samples=8)
    assert res.samples.shape == (8, 3)
    t, g, energy = res.samples.T
    assert np.all(np.diff(t) > 0)
    assert g[-1] == pytest.approx(0.8 * G_C, rel=1e-12)
    # energy along the ramp is continuous: no jump larger than the total rise
    assert np.abs(np.diff(energy)).max() < max(energy.max() - energy.min(), 1e-12)


@pytest.mark.parametrize("n_samples", [8, 30, 70])
def test_trajectory_has_exactly_the_requested_samples_ending_at_tau_q(n_samples):
    protocol = QuenchProtocol(g_f=0.5 * G_C, tau_q=5.0, r=R, n_max=32, dt=0.05)  # 100 steps
    t = propagate(protocol, n_samples=n_samples).samples[:, 0]
    assert len(t) == n_samples
    assert t[-1] == pytest.approx(5.0, rel=1e-12)
    assert np.ptp(np.diff(t)) <= 0.05 + 1e-12  # evenly spaced to within one step


def test_more_samples_than_steps_rejected_before_any_step(monkeypatch):
    monkeypatch.setattr(quench, "zgtsv", None)  # any step would raise TypeError
    protocol = QuenchProtocol(g_f=0.5 * G_C, tau_q=5.0, r=R, n_max=32, dt=0.05)
    with pytest.raises(ValueError, match="^n_samples=150 exceeds the run's n_steps=100"):
        propagate(protocol, n_samples=150)
    # without dt the cap is the start step's step count: 273 at the gap_f phase bound 3.66
    protocol = QuenchProtocol(g_f=0.99 * G_C, tau_q=1000.0, r=R)
    with pytest.raises(ValueError, match="^n_samples=274 exceeds the run's n_steps=273"):
        propagate(protocol, n_samples=274)


def test_trajectory_comes_from_the_reported_rung():
    # the start step dt = 1 fails the 1% gate, so the ladder halves it
    protocol = QuenchProtocol(g_f=0.9 * G_C, tau_q=20.0, r=R, n_max=8, dt=1.0)
    res = propagate(protocol, n_samples=4)
    assert res.dt < 1.0
    t, g, energy = res.samples[-1]
    assert (t, g) == pytest.approx((20.0, 0.9 * G_C), rel=1e-12)
    assert energy == pytest.approx(res.residual_energy + res.ground_energy, rel=1e-12)


@pytest.mark.parametrize("drifts,raises", [((1e-12, 5e-13, 2.5e-13), False),
                                            ((2e-9, 5e-13, 2.5e-13), False),
                                            ((1e-12, 2e-9, 2.5e-13), True)],
                         ids=["reported", "first_rung_drifts", "reported_rung_drifts"])
def test_norm_drift_comes_from_the_reported_rung(monkeypatch, drifts, raises):
    # the ladder runs dt = 1, 0.5 and 0.25 and reports 0.5; each rung's drift is
    # replaced by the one given for its step, so only the reported one may count
    once = quench._propagate_once

    def forged(protocol, bases, dt, n_samples, e0):
        return [(e_r, drifts[{1.0: 0, 0.5: 1, 0.25: 2}[dt]], leak, samples)
                for e_r, _, leak, samples in once(protocol, bases, dt, n_samples, e0)]

    monkeypatch.setattr(quench, "_propagate_once", forged)
    protocol = QuenchProtocol(g_f=0.9 * G_C, tau_q=20.0, r=R, n_max=8, dt=1.0)
    if raises:
        with pytest.raises(ConvergenceError, match="^norm drift 2.00e-09 above 1e-09$"):
            propagate(protocol)
    else:
        res = propagate(protocol)
        assert (res.dt, res.norm_drift) == (0.5, drifts[1])


@pytest.mark.parametrize("frac,tau_q,n_max", [(0.99, 1000.0, 256), (1 - 1e-6, 100.0, 512)])
def test_right_sized_basis_agrees_with_the_callers(frac, tau_q, n_max):
    # the two benchmark points: the leakage ladder stops at 64 rows, and E_r
    # there agrees with a run at the caller's n_max at the same dt and E_0
    g_f = frac * G_C
    (row,) = kz_sweep(g_f, [tau_q], ModelParams(delta=DELTA_C, g=g_f, r=R), n_max=n_max)
    assert row["converged"] and row["n_max"] == 64
    protocol = QuenchProtocol(g_f=g_f, tau_q=tau_q, r=R, n_max=n_max)
    full = quench._propagate_once(protocol, (n_max,), row["dt"], 0,
                                  ground_energy_final(protocol))[0][0]
    assert row["e_r"] == pytest.approx(full, rel=1e-6)


def test_sweep_rejects_a_sample_count_before_any_point_runs(monkeypatch):
    monkeypatch.setattr(quench, "zgtsv", None)  # any step would raise TypeError
    params = ModelParams(delta=DELTA_C, g=0.5 * G_C, r=R)
    with pytest.raises(ValueError, match="^n_samples=150 exceeds the run's n_steps=100; "
                                         "a smaller dt"):
        kz_sweep(0.5 * G_C, [50.0, 5.0], params, n_max=32, n_samples=150)


def test_default_step_is_sized_by_the_dt_gate(monkeypatch):
    # B = 9.3e-4 and the ramp is adiabatic at g_f, so the ladder starts at the gap_f
    # phase bound, dt = 3.66, and the gate holds at the first pair: 273 steps of 64 and
    # 128 rows in lockstep, where 64 holds and 128 is the truncation check, then 546 at
    # 64 rows, at two solves a step (a start at dt = 1 makes 3.7 times as many, one at
    # the omega01 phase bound, dt = 0.16, 22 times)
    calls = []
    zgtsv = quench.zgtsv

    def counting(lower, diag, *args, **kwargs):
        calls.append(len(diag))
        return zgtsv(lower, diag, *args, **kwargs)

    monkeypatch.setattr(quench, "zgtsv", counting)
    g_f = 0.99 * G_C
    (row,) = kz_sweep(g_f, [1000.0], ModelParams(delta=DELTA_C, g=g_f, r=R), n_max=256)
    assert row["converged"]
    assert len(calls) == 1_638
    assert Counter(calls) == {192: 546, 64: 1_092}
    assert row["e_r"] == pytest.approx(1.0709408e-3, rel=1e-2)  # E_r at dt = 0.01


@pytest.mark.slow
def test_residual_energy_monotone_in_final_coupling():
    taus = 30.0
    values = []
    for frac in (0.90, 0.95, 0.99):
        protocol = QuenchProtocol(g_f=frac * G_C, tau_q=taus, r=R, n_max=192)
        values.append(propagate(protocol).residual_energy)
    assert values[0] < values[1] < values[2]


def test_kz_sweep_rows_and_flags(monkeypatch):
    params = ModelParams(delta=DELTA_C, g=0.5 * G_C, r=R)
    table = kz_sweep(0.5 * G_C, [20.0, 40.0], params, n_max=128, dt=0.002)
    assert [row["tau_q"] for row in table] == [20.0, 40.0]
    assert all(row["converged"] for row in table)
    assert all(row["e_r"] >= -1e-10 for row in table)
    assert all(row["norm_drift"] < 1e-9 for row in table)
    # a sweep of no quench times has no rows, and solves no record
    records = _count_calls(monkeypatch, quench, "abrupt_start_bound")
    assert kz_sweep(0.5 * G_C, [], params) == [] and records == []


@pytest.mark.parametrize("frac,tau_q,n_max,dt,n_used,dt_used", [
    (0.9, 20.0, 8, 2.0, 16, 0.5),  # one leakage doubling, two dt halvings
    (0.95, 30.0, 6, 1.0, 24, 0.5),  # two leakage doublings, one dt halving
])
def test_propagate_climbs_both_ladders(frac, tau_q, n_max, dt, n_used, dt_used):
    protocol = QuenchProtocol(g_f=frac * G_C, tau_q=tau_q, r=R, n_max=n_max, dt=dt)
    res = propagate(protocol, check_truncation=True)
    assert (res.n_max, res.dt) == (n_used, dt_used)
    assert res.residual_energy > 0.0


def test_negative_sample_count_rejected_before_any_step():
    protocol = QuenchProtocol(g_f=0.5 * G_C, tau_q=5.0, r=R, n_max=32, dt=0.05)
    with pytest.raises(ValueError, match="^n_samples=-3 must be >= 0"):
        propagate(protocol, n_samples=-3)
    with pytest.raises(ValueError, match="^n_samples=-3 must be >= 0"):
        kz_sweep(0.5 * G_C, [5.0], ModelParams(delta=DELTA_C, g=0.0, r=R), n_max=32, dt=0.05,
                 n_samples=-3)


def test_propagate_dt_ladder_gives_up_after_three_halvings():
    protocol = QuenchProtocol(g_f=0.99 * G_C, tau_q=10.0, r=R, n_max=64, dt=5.0)
    with pytest.raises(ConvergenceError, match=r"under dt halving \(last dt=6\.25e-01\)"):
        propagate(protocol)


def test_propagate_leakage_error_names_the_last_truncation_run():
    # n_max = 2, 4 and 8 all leak; 16 was never run, or ran only as 8's truncation check
    protocol = QuenchProtocol(g_f=0.999 * G_C, tau_q=50.0, r=R, n_max=2, dt=1.0)
    for check_truncation in (False, True):
        with pytest.raises(ConvergenceError, match=r"basis leakage .* at n_max=8$"):
            propagate(protocol, check_truncation=check_truncation)


@pytest.mark.parametrize("frac,tau_q,n_max", [(0.5, 200.0, 64), (0.5, 200.0, 128)])
def test_adiabatic_point_converges_from_the_phase_bound(frac, tau_q, n_max):
    # B = 0.65: the ladder starts at the phase bound 0.235 and holds at 0.117; a
    # Crank-Nicolson ladder from dt = 0.1 does not hold here (3.9% at its third halving)
    protocol = QuenchProtocol(g_f=frac * G_C, tau_q=tau_q, r=R, n_max=n_max)
    res = propagate(protocol, check_truncation=True)
    assert res.dt < protocol.start_dt()
    assert res.residual_energy == pytest.approx(1.9742e-7, rel=1e-2)  # dt = 0.005


def test_a_halving_point_reuses_the_lockstep_pair_for_the_check(monkeypatch):
    # (64, 128) in lockstep at the phase bound dt = 0.235 (852 steps), then 64 alone at
    # dt / 2 and dt / 4; the check reads the lockstep 128, so 128 runs at no other step
    calls = []
    zgtsv = quench.zgtsv

    def counting(lower, diag, *args, **kwargs):
        calls.append(len(diag))
        return zgtsv(lower, diag, *args, **kwargs)

    monkeypatch.setattr(quench, "zgtsv", counting)
    protocol = QuenchProtocol(g_f=0.5 * G_C, tau_q=200.0, r=R)
    res = propagate(protocol, check_truncation=True)
    assert (len(calls), sum(calls)) == (11_934, 981_888)
    assert Counter(calls) == {192: 1_704, 64: 3_410 + 6_820}
    assert (res.n_max, res.dt) == (64, protocol.start_dt() / 2)
    assert res.residual_energy == pytest.approx(1.9699079090162996e-07, rel=1e-12)
    monkeypatch.setattr(quench, "zgtsv", zgtsv)
    single = quench._propagate_once(protocol, (64,), res.dt, 0, res.ground_energy)[0]
    assert res.residual_energy == single[0]


@pytest.mark.parametrize("r,frac,tau_q", [(0.6, 0.3, 1000.0), (0.6, 0.5, 1000.0),
                                          (R, 0.5, 200.0), (R, 0.5, 1000.0)])
def test_truncation_check_verdict_holds_at_the_reported_step(r, frac, tau_q):
    # the check moves from n_max to 2 n_max at the start step; where the dt ladder
    # halves, the same move at the reported step gives the same verdict (both stay
    # below 1e-6 here)
    protocol = QuenchProtocol(g_f=frac * critical_params(r)[0], tau_q=tau_q, r=r)
    res = propagate(protocol, check_truncation=True)
    assert res.dt < protocol.start_dt()

    def move(dt):
        e_r, e_r_dbl = (run[0] for run in quench._propagate_once(
            protocol, (res.n_max, 2 * res.n_max), dt, 0, res.ground_energy))
        return abs(e_r_dbl - e_r) / abs(e_r_dbl)

    assert move(protocol.start_dt()) <= 1e-6 and move(res.dt) <= 1e-6


def test_adiabatic_residual_energy_agrees_with_a_fine_step_run():
    protocol = QuenchProtocol(g_f=0.4 * G_C, tau_q=200.0, r=R, n_max=128)
    res = propagate(protocol)
    fine = quench._propagate_once(protocol, (res.n_max,), 0.005, 0, res.ground_energy)[0][0]
    assert res.residual_energy == pytest.approx(fine, rel=1e-2)


@pytest.mark.parametrize("r,frac,tau_q", [(R, 0.99, 1e3), (R, 0.999, 1e4), (0.6, 0.999, 1e4)])
def test_adiabatic_endpoint_starts_at_the_soft_mode_phase_bound(r, frac, tau_q):
    # B <= 9.3e-4 and (g_f/tau_q)^2 chi_3 / gap_f <= 0.064 here, so the ladder starts at
    # the Pade phase bound on gap_f = E_1 - E_0 at g_f (dt = 3.66, 8.01 and 6.23) and
    # the gate holds at the first pair; E_r reads +0.29%, +0.19% and -0.03% from dt = 0.25
    g_c, delta_c = critical_params(r)
    params = ModelParams(delta=delta_c, g=frac * g_c, r=r)
    block = ed.build_parity_block(params, -1, 256)
    e0, e1 = eigh_tridiagonal(block.diag, block.offdiag, eigvals_only=True, select="i",
                              select_range=(0, 1))
    protocol = QuenchProtocol(g_f=frac * g_c, tau_q=tau_q, r=r)
    assert protocol.start_dt() == pytest.approx((72.0 / (tau_q * (e1 - e0) ** 5)) ** 0.25,
                                                rel=1e-12)
    (row,) = kz_sweep(frac * g_c, [tau_q], params)
    assert row["converged"] and row["dt"] == protocol.start_dt()
    e0_f = ground_energy_final(protocol)
    fine = quench._propagate_once(protocol, (row["n_max"],), 0.25, 0, e0_f)[0][0]
    assert row["e_r"] == pytest.approx(fine, rel=1e-2)


@pytest.mark.parametrize("frac", [0.5, 0.9])
def test_magnus_step_is_fourth_order(frac):
    # on a tau_q = 5 ramp, each halving of dt from 0.2 to 0.025 cuts the E_r error 16x
    protocol = QuenchProtocol(g_f=frac * G_C, tau_q=5.0, r=R, n_max=32)
    e0 = ground_energy_final(protocol)
    ref = quench._propagate_once(protocol, (32,), 0.001, 0, e0)[0][0]
    errors = [abs(quench._propagate_once(protocol, (32,), dt, 0, e0)[0][0] - ref)
              for dt in (0.2, 0.1, 0.05, 0.025)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 14.0 < coarse / fine < 18.0


def _per_root_magnus_run(protocol, n_max, dt, e0):
    """Oracle: the Magnus steps with each root's off-diagonals and 2x - psi formed anew."""
    block = ed.build_parity_block(protocol.params_final, -1, n_max)
    diag, coupling = block.diag, block.coupling
    psi = np.zeros(n_max, dtype=complex)
    psi[0] = 1.0
    n_steps = quench._n_steps(protocol.tau_q, dt)
    dt = protocol.tau_q / n_steps
    rate = protocol.g_f / protocol.tau_q
    factors = [(1.0 + 1j * dt * (diag - e0) / d, 1j * dt * coupling / d,
                (dt**3 * rate / 12.0) * coupling * np.diff(diag) / d) for d in quench._PADE_ROOTS]
    for step in range(n_steps):
        lam_mid = rate * (step + 0.5) * dt
        for lhs_diag, ramp, skew in factors:
            mid = lam_mid * ramp
            *_, x, info = zgtsv(mid - skew, lhs_diag, mid + skew, psi)
            assert info == 0
            psi = 2.0 * x - psi
    norm_drift = abs(float(np.linalg.norm(psi)) - 1.0)
    leak = float(np.sum(np.abs(psi[int(0.9 * n_max):]) ** 2))
    h_psi = ed.tridiag_apply(diag, protocol.g_f * coupling, psi)
    return float(np.real(np.vdot(psi, h_psi))) - e0, norm_drift, leak


@pytest.mark.parametrize("frac,tau_q,n_max,dt", [(0.9, 50.0, 64, 0.5), (0.5, 20.0, 32, 0.2)])
def test_magnus_steps_are_bitwise_the_per_root_solves(frac, tau_q, n_max, dt):
    # the shared off-diagonal buffer, overwritten by each solve, and the halved system
    # change no bit, alone and as either half of a lockstep pair
    protocol = QuenchProtocol(g_f=frac * G_C, tau_q=tau_q, r=R, n_max=n_max)
    e0 = ground_energy_final(protocol)
    for bases in ((n_max,), (n_max, 2 * n_max), (n_max // 2, n_max)):
        run = quench._propagate_once(protocol, bases, dt, 0, e0)[bases.index(n_max)]
        assert run[:3] == _per_root_magnus_run(protocol, n_max, dt, e0)


@pytest.mark.parametrize("r", [0.0, R])
@pytest.mark.parametrize("frac,tau_q,n_max", [(0.5, 20.0, 32), (0.99, 50.0, 64)])
def test_lockstep_runs_are_bitwise_the_single_runs(r, frac, tau_q, n_max):
    # a zero subdiagonal at the junction never pivots and eliminates nothing
    protocol = QuenchProtocol(g_f=frac * critical_params(r)[0], tau_q=tau_q, r=r, n_max=n_max)
    e0 = ground_energy_final(protocol)
    pair = quench._propagate_once(protocol, (n_max, 2 * n_max), 0.5, 5, e0)
    singles = [quench._propagate_once(protocol, (n,), 0.5, 5, e0)[0] for n in (n_max, 2 * n_max)]
    assert pair == singles
    assert all(len(samples) == 5 for *_, samples in pair)


@pytest.mark.parametrize("check_truncation,rows", [
    # 6, 12 and 24 rows at dt = 1 (30 steps), then 24 at dt = 0.5 and 0.25
    (False, {6: 60, 12: 60, 24: 60 + 120 + 240}),
    # (6, 12) and (24, 48) in lockstep at dt = 1; 24 holds, and the check reads its
    # lockstep 48 at the start step, so no basis runs twice at one dt
    (True, {18: 60, 72: 60, 24: 120 + 240}),
])
def test_propagate_pairs_bases_only_for_the_truncation_check(monkeypatch, check_truncation,
                                                             rows):
    calls = []
    zgtsv = quench.zgtsv

    def counting(lower, diag, *args, **kwargs):
        calls.append(len(diag))
        return zgtsv(lower, diag, *args, **kwargs)

    monkeypatch.setattr(quench, "zgtsv", counting)
    protocol = QuenchProtocol(g_f=0.95 * G_C, tau_q=30.0, r=R, n_max=6, dt=1.0)
    res = propagate(protocol, check_truncation=check_truncation)
    assert (res.n_max, res.dt) == (24, 0.5)
    assert Counter(calls) == rows


def test_truncation_check_raises_where_doubling_moves_e_r(monkeypatch):
    # the 32-row basis holds its leakage gate; its lockstep double, the check's run,
    # is forged 2% off, so only the n -> 2n check can fail
    once = quench._propagate_once

    def forged(protocol, bases, dt, n_samples, e0):
        runs = once(protocol, bases, dt, n_samples, e0)
        return [(e_r * (1.02 if i else 1.0), *rest) for i, (e_r, *rest) in enumerate(runs)]

    monkeypatch.setattr(quench, "_propagate_once", forged)
    protocol = QuenchProtocol(g_f=0.5 * G_C, tau_q=5.0, r=R, n_max=32, dt=0.05)
    assert propagate(protocol).n_max == 32  # unchecked, the point converges
    with pytest.raises(ConvergenceError, match=r"^E_r moves by .* \(> 1%\) when doubling "
                                               r"n_max=32$"):
        propagate(protocol, check_truncation=True)
    (row,) = kz_sweep(0.5 * G_C, [5.0], ModelParams(delta=DELTA_C, g=0.0, r=R), n_max=32,
                      dt=0.05)
    assert not row["converged"] and math.isnan(row["e_r"]) and row["n_max"] == 32


@pytest.mark.parametrize("frac,n_max", [(0.5, 32), (0.9, 64)])
def test_magnus_step_keeps_the_norm_at_dt_one(frac, n_max):
    protocol = QuenchProtocol(g_f=frac * G_C, tau_q=20.0, r=R, n_max=n_max)
    e0 = ground_energy_final(protocol)
    assert quench._propagate_once(protocol, (n_max,), 1.0, 0, e0)[0][1] <= 1e-14


def test_propagate_where_chi_3_does_not_converge(monkeypatch):
    # 1 - g_f/g_c = 1e-7: chi_3 is unconverged at 16,384 rows, so the record for every
    # tau_q has B = inf, and its E_0 climbs on to 32,768 rows.  propagate's record serves
    # its own tau_q = 10, where the rungs at 256 and 512 rows are impulsive: the
    # resolvents stop (B = 2.9e-8), the start is min(1, tau_q/100) = 0.1, and E_0 comes
    # from the same ladder.  Both E_0 are bitwise the standalone E_0 ladder's, and
    # propagate solves one record and no other ground ladder
    protocol = QuenchProtocol(g_f=(1 - 1e-7) * G_C, tau_q=10.0, r=R, n_max=256)
    standalone = ed.ground_state_block(protocol.params_final, 256, quench._E0_TOL,
                                       quench._E0_CEILING)
    start = quench.abrupt_start_bound(protocol.params_final)
    assert start.bound == math.inf and math.isnan(start.gap_f) and math.isnan(start.chi_3)
    assert start.e0.hex() == standalone[0].hex()
    bounded = quench.abrupt_start_bound(protocol.params_final, protocol.tau_q)
    assert bounded.bound == pytest.approx(2.913e-8, rel=1e-3)
    assert bounded.e0 == pytest.approx(-0.499821116, abs=1e-9)
    assert standalone[3] == 32_768 and bounded.e0.hex() == standalone[0].hex()
    assert protocol.start_dt() == pytest.approx(0.1)
    records = _count_calls(monkeypatch, quench, "abrupt_start_bound")
    ladders = _count_calls(monkeypatch, ed, "ground_state_block")
    res = propagate(protocol, check_truncation=True)
    assert len(records) == 1 and len(ladders) == 0
    assert res.ground_energy == bounded.e0
    assert res.residual_energy > 0.0
    assert res.norm_drift <= 1e-9


def _count_calls(monkeypatch, module, name: str) -> list:
    """Record the positional arguments of each call to module.name."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _count_resolvents(monkeypatch) -> list:
    """Record the rows of each ed._ground_resolvent solve."""
    calls = []
    ground_resolvent = ed._ground_resolvent

    def counting(block, *args):
        calls.append(len(block.diag))
        return ground_resolvent(block, *args)

    monkeypatch.setattr(ed, "_ground_resolvent", counting)
    return calls


@pytest.mark.parametrize("frac,tau_q,n_max,rungs", [(1 - 1e-6, 100.0, 512, 7),
                                                    (0.99, 1000.0, 256, 2)])
def test_kz_sweep_solves_the_endpoint_ground_ladder_once(monkeypatch, frac, tau_q, n_max, rungs):
    # the two benchmark points.  At (1 - 1e-6) g_c the rungs at 256 and 512 rows are
    # impulsive, so chi_3's resolvents stop there and the ground ladder climbs on to
    # 16,384 rows; at 0.99 g_c chi_3 holds at 512.  Either way two resolvent solves a
    # rung, and the top rung's E_0 serves the run, bitwise the standalone E_0 ladder's:
    # one record, and no other ground ladder
    g_f = frac * G_C
    params = ModelParams(delta=DELTA_C, g=g_f, r=R)
    standalone = ed.ground_state_block(params, max(n_max, 256), quench._E0_TOL,
                                       quench._E0_CEILING)[0]
    ground_rungs, e0s = [], set()
    lowest_pairs, propagate_once = ed._lowest_pairs, quench._propagate_once

    def counting(diag, off, k, *args):
        if k == 1:
            ground_rungs.append(len(diag))
        return lowest_pairs(diag, off, k, *args)

    def recording(*args):
        e0s.add(args[-1])
        return propagate_once(*args)

    monkeypatch.setattr(ed, "_lowest_pairs", counting)
    monkeypatch.setattr(quench, "_propagate_once", recording)
    resolvents = _count_resolvents(monkeypatch)
    records = _count_calls(monkeypatch, quench, "abrupt_start_bound")
    ladders = _count_calls(monkeypatch, ed, "ground_state_block")
    (row,) = kz_sweep(g_f, [tau_q], params, n_max=n_max)
    assert row["converged"]
    assert ground_rungs == [256 * 2**i for i in range(rungs)]
    assert resolvents == [256, 256, 512, 512]
    assert len(records) == 1 and ladders == []
    assert [e0.hex() for e0 in e0s] == [standalone.hex()]


@pytest.mark.parametrize("frac,tau_max,top,bound,climbed", [
    (0.99, math.inf, 512, 9.272e-4, []),  # chi_3 and E_0 both hold at 512 rows
    (1 - 1e-6, 100.0, 512, 3.142e-8, [1024 * 2**i for i in range(5)]),  # impulsive
    (1 - 1e-7, math.inf, 16_384, math.inf, [32_768]),  # unconverged at the ceiling
])
def test_each_way_chi_3_settles_gives_the_standalone_e0(monkeypatch, frac, tau_max, top, bound,
                                                      climbed):
    # chi_3's resolvents run two solves a rung up to the rung whose verdict is set, and
    # none above it; E_0 climbs on from there on ground pairs alone until it holds, and
    # is bitwise the standalone E_0 ladder's
    params = ModelParams(delta=DELTA_C, g=frac * G_C, r=R)
    standalone = ed.ground_state_block(params, 256, quench._E0_TOL, quench._E0_CEILING)[0]
    resolvents = _count_resolvents(monkeypatch)
    ground_rungs = _count_calls(monkeypatch, quench, "_ground_rung")
    start = quench.abrupt_start_bound(params, tau_max)
    rows = [256 * 2**i for i in range(top.bit_length() - 8)]
    assert resolvents[::2] == resolvents[1::2] == rows
    assert [n for _, n, _ in ground_rungs] == climbed
    assert start.e0.hex() == standalone.hex()
    assert start.bound == pytest.approx(bound, rel=1e-3)
    assert math.isnan(start.chi_3) == math.isinf(bound)


def test_adiabatic_reference_is_the_records_end_point_term():
    g_f, tau_q = 0.99 * G_C, 1e4
    final = ModelParams(delta=DELTA_C, g=g_f, r=R)
    ref = adiabatic_reference(g_f, tau_q, ModelParams(delta=DELTA_C, g=0.0, r=R))
    assert ref == (g_f / tau_q) ** 2 * quench.abrupt_start_bound(final).chi_3


def test_a_resolvent_off_its_residual_gate_leaves_chi_3_unconverged(monkeypatch):
    # the 512-row chi_3 solve misses _ground_resolvent's residual gate: chi_3's verdict
    # there is unconverged (B = inf), no resolvent runs above it, and E_0 takes that rung's
    # ground pair, which holds at 0.99 g_c, bitwise the standalone ladder's
    g_f = 0.99 * G_C
    params = ModelParams(delta=DELTA_C, g=g_f, r=R)
    standalone = ed.ground_state_block(params, 256, quench._E0_TOL, quench._E0_CEILING)[0]
    rows = []
    ground_resolvent = ed._ground_resolvent

    def forged(block, *args):
        rows.append(n := len(block.diag))
        if n == 512:
            raise ConvergenceError("resolvent residual above the gate (forged)")
        return ground_resolvent(block, *args)

    monkeypatch.setattr(ed, "_ground_resolvent", forged)
    start = quench.abrupt_start_bound(params)
    assert rows == [256, 256, 512]
    assert start.bound == math.inf and math.isnan(start.chi_3) and math.isnan(start.gap_f)
    assert start.e0.hex() == standalone.hex()
    with pytest.raises(ConvergenceError,
                       match="^chi_3 not stable to 1e-06 at truncation ceiling 16384$"):
        adiabatic_reference(g_f, 1e4, params)


def test_a_start_that_excites_nothing_has_a_zero_bound():
    # at r = 0 the block's ground state couples to nothing (T01 = C_0 = 0): chi_3 = 0,
    # and B = 0 rather than 0/0
    g_c, delta_c = critical_params(0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = quench.abrupt_start_bound(ModelParams(delta=delta_c, g=0.5 * g_c, r=0.0))
    assert (start.bound, start.chi_3) == (0.0, 0.0)
    assert start.e0 == pytest.approx(-0.5, abs=1e-12)


def test_a_sweep_with_a_given_dt_solves_e0_once(monkeypatch):
    # a given dt still takes E_0 from the record: one serves every tau_q, and no other
    # ground ladder runs
    params = ModelParams(delta=DELTA_C, g=0.5 * G_C, r=R)
    taus = [5.0, 10.0, 20.0]
    alone = [propagate(QuenchProtocol(g_f=0.5 * G_C, tau_q=tau_q, r=R, n_max=32, dt=0.05),
                       check_truncation=True).residual_energy for tau_q in taus]
    records = _count_calls(monkeypatch, quench, "abrupt_start_bound")
    ladders = _count_calls(monkeypatch, ed, "ground_state_block")
    table = kz_sweep(0.5 * G_C, taus, params, n_max=32, dt=0.05)
    assert len(records) == 1 and ladders == []
    assert [row["e_r"] for row in table] == alone


def test_an_e0_not_held_where_chi_3_holds_climbs_the_same_ladder(monkeypatch):
    # at 0.99 g_c chi_3 and E_0 both hold at 512 rows.  With the E_0 gate set to E_0's own
    # move at 512 rows, E_0 no longer holds there: the ladder climbs to 1,024 rows on the
    # ground pair alone, with no new resolvent solve; chi_3 and B are those of the
    # held rung, E_0 is the standalone ladder's at the same gate, and E_r does not move
    g_f = 0.99 * G_C
    params = ModelParams(delta=DELTA_C, g=g_f, r=R)
    (held,) = kz_sweep(g_f, [1000.0], params, n_max=256)
    unforged = quench.abrupt_start_bound(params)
    move = ed.ground_state_block(params, 256, quench._E0_TOL, 512)[2]
    assert 0.0 < move < quench._E0_TOL
    monkeypatch.setattr(quench, "_E0_TOL", move)
    standalone = ed.ground_state_block(params, 256, move, quench._E0_CEILING)
    assert standalone[3] == 1024
    ground_rungs = []
    ground_rung = quench._ground_rung

    def counting(params, n, previous):
        ground_rungs.append(n)
        return ground_rung(params, n, previous)

    monkeypatch.setattr(quench, "_ground_rung", counting)
    resolvents = _count_resolvents(monkeypatch)
    start = quench.abrupt_start_bound(params)
    assert resolvents == [256, 256, 512, 512] and ground_rungs == [1024]
    assert (start.chi_3, start.bound, start.gap_f) == (unforged.chi_3, unforged.bound,
                                                       unforged.gap_f)
    assert start.e0.hex() == standalone[0].hex()
    assert start.bound == pytest.approx(9.27e-4, rel=1e-3)
    (row,) = kz_sweep(g_f, [1000.0], params, n_max=256)
    assert row["converged"] and row["e_r"] == pytest.approx(held["e_r"], rel=1e-9)


def test_a_chi_3_that_falls_between_rungs_keeps_the_ladder_solving(monkeypatch):
    # at (1 - 1e-6) g_c the 512-row rung's chi_3 is forged 100 times smaller, below the
    # 256-row rung's: that rung is not impulsive, so the resolvents go on until two
    # rising rungs, 1,024 and 2,048, are; the record still takes the impulsive branch
    g_f = (1 - 1e-6) * G_C
    params = ModelParams(delta=DELTA_C, g=g_f, r=R)
    resolvents = []
    ground_resolvent = ed._ground_resolvent

    def forged(block, *args):
        resolvents.append(n := len(block.diag))
        x = ground_resolvent(block, *args)
        return 0.01 * x if n == 512 and len(resolvents) % 2 == 0 else x

    monkeypatch.setattr(ed, "_ground_resolvent", forged)
    start = quench.abrupt_start_bound(params, 100.0)
    assert resolvents == [256, 256, 512, 512, 1024, 1024, 2048, 2048]
    assert start.chi_3 == pytest.approx(1.63e13, rel=1e-2)
    assert start.bound <= 0.1 * quench._ER_REL_TOL
    assert QuenchProtocol(g_f=g_f, tau_q=100.0, r=R).default_dt(start) == 1.0


@pytest.mark.parametrize("tau_max,top", [(100.0, 512), (1e5, 2048), (1e7, 16_384)])
def test_the_early_exit_needs_a_thousandfold_end_point_term(monkeypatch, tau_max, top):
    # at (1 - 1e-6) g_c and tau_max = 1e5 the end-point term over gap_f reads 25 and 710
    # on the first two rungs, then 1.4e4 and 8.4e4, so the resolvents stop at 2,048 rows;
    # at 1e7 it stays below 1e3 (11 at the top) and chi_3 climbs to its gate.  The branch
    # is impulsive at every tau_max: the start is min(1, tau_q/100)
    g_f = (1 - 1e-6) * G_C
    rungs = _count_resolvents(monkeypatch)
    start = quench.abrupt_start_bound(ModelParams(delta=DELTA_C, g=g_f, r=R), tau_max)
    assert rungs[::2] == rungs[1::2] == [256 * 2**i for i in range(top.bit_length() - 8)]
    assert QuenchProtocol(g_f=g_f, tau_q=tau_max, r=R).default_dt(start) == 1.0


@pytest.mark.parametrize("frac,small,big", [(1 - 1e-6, 0.0124166, 0.0022626),
                                            (1 - 1e-7, 0.0123333, 0.0007155),
                                            (0.99, 0.209214, 0.209214)])
def test_the_start_bounds_gap_overestimates_gap_f_near_collapse(frac, small, big):
    # gap_f comes from 256 rows; near collapse the 16,384-row gap is 5.5 and 17 times
    # smaller, so B (which grows with gap_f), the impulsive test and the early exit
    # (which gap_f must be small to pass) and the Pade bound on gap_f all lean toward
    # the larger B, the adiabatic branch and the smaller step
    params = ModelParams(delta=DELTA_C, g=frac * G_C, r=R)
    gaps = []
    for n in (256, 16_384):
        block = ed.build_parity_block(params, -1, n)
        e0, e1 = eigh_tridiagonal(block.diag, block.offdiag, eigvals_only=True, select="i",
                                  select_range=(0, 1))
        gaps.append(e1 - e0)
    assert gaps == pytest.approx([small, big], rel=1e-4)  # the digits given
    assert gaps[0] >= gaps[1] * (1 - 1e-9)
    assert quench.abrupt_start_bound(params, 10.0).gap_f == gaps[0]


def test_a_failed_crank_nicolson_solve_is_raised(monkeypatch):
    monkeypatch.setattr(quench, "zgtsv", lambda *args, **kwargs: (*zgtsv(*args, **kwargs)[:-1], 2))
    protocol = QuenchProtocol(g_f=0.5 * G_C, tau_q=5.0, r=R, n_max=32, dt=0.05)
    with pytest.raises(RuntimeError, match=r"^tridiagonal solve failed \(LAPACK info=2\)$"):
        propagate(protocol)
