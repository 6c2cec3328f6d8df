import math

import numpy as np
import pytest

from tpqrm.errors import ConvergenceError
from tpqrm.model import ModelParams, critical_params
from tpqrm.quench import QuenchProtocol, ground_energy_final, kz_predict, kz_sweep, propagate
from tpqrm import ed
from tpqrm.model import SectorSpec

R = 0.25
G_C, DELTA_C = critical_params(R)


def test_protocol_validation_and_defaults():
    protocol = QuenchProtocol(g_f=0.5 * G_C, tau_q=100.0, r=R)
    assert protocol.delta == DELTA_C
    assert protocol.default_dt() == pytest.approx(100.0 / 1e5)
    assert QuenchProtocol(g_f=0.5 * G_C, tau_q=1e7, r=R).default_dt() == 0.01
    with pytest.raises(ValueError):
        QuenchProtocol(g_f=G_C, tau_q=10.0, r=R)
    with pytest.raises(ValueError):
        QuenchProtocol(g_f=0.5 * G_C, tau_q=-1.0, r=R)
    for field, bad in (("tau_q", math.nan), ("tau_q", math.inf), ("delta", math.nan),
                       ("dt", math.inf)):
        with pytest.raises(ValueError, match=f"{field}={bad} must be finite"):
            QuenchProtocol(**{"g_f": 0.5 * G_C, "tau_q": 10.0, "r": R, field: bad})


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


def test_ground_energy_final_matches_block_solver():
    protocol = QuenchProtocol(g_f=0.7 * G_C, tau_q=10.0, r=R)
    e0 = ground_energy_final(protocol)
    spec = ed.ed_spectrum(ModelParams(delta=DELTA_C, g=0.7 * G_C, r=R),
                          SectorSpec(0.25, -1), k=1, tol=1e-11)
    assert e0 == pytest.approx(spec.energies[0], abs=1e-9)


def test_adiabatic_limit_residual_energy_vanishes():
    protocol = QuenchProtocol(g_f=0.4 * G_C, tau_q=200.0, r=R, n_max=128)
    res = propagate(protocol)
    assert res.residual_energy < 1e-6
    assert res.residual_energy > -1e-10
    assert res.norm_drift < 1e-9


def test_trajectory_samples():
    protocol = QuenchProtocol(g_f=0.8 * G_C, tau_q=40.0, r=R, n_max=128, dt=0.002)
    res = propagate(protocol, n_samples=8)
    assert res.samples.shape == (8, 4)
    t, g, energy, overlap = res.samples.T
    assert np.all(np.diff(t) > 0)
    assert g[-1] == pytest.approx(0.8 * G_C, rel=1e-12)
    assert np.all((overlap > 0.0) & (overlap <= 1.0 + 1e-9))
    # energy along the ramp is continuous: no jump larger than the total rise
    assert np.abs(np.diff(energy)).max() < max(energy.max() - energy.min(), 1e-12)


@pytest.mark.slow
def test_residual_energy_monotone_in_final_coupling():
    taus = 30.0
    values = []
    for frac in (0.90, 0.95, 0.99):
        protocol = QuenchProtocol(g_f=frac * G_C, tau_q=taus, r=R, n_max=192)
        values.append(propagate(protocol).residual_energy)
    assert values[0] < values[1] < values[2]


def test_kz_sweep_rows_and_flags():
    params = ModelParams(delta=DELTA_C, g=0.5 * G_C, r=R)
    table = kz_sweep(0.5 * G_C, [20.0, 40.0], params, n_max=128, dt=0.002)
    assert [row["tau_q"] for row in table] == [20.0, 40.0]
    assert all(row["converged"] for row in table)
    assert all(row["e_r"] >= -1e-10 for row in table)
    assert all(row["norm_drift"] < 1e-9 for row in table)


@pytest.mark.parametrize("frac,tau_q,n_max,dt,n_used,dt_used", [
    (0.9, 20.0, 8, 0.5, 16, 0.125),  # one leakage doubling, two dt halvings
    (0.95, 30.0, 6, 0.3, 24, 0.15),  # two leakage doublings, one dt halving
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
    protocol = QuenchProtocol(g_f=0.99 * G_C, tau_q=10.0, r=R, n_max=64, dt=4.0)
    with pytest.raises(ConvergenceError, match=r"under dt halving \(last dt=5\.00e-01\)"):
        propagate(protocol)


def test_propagate_leakage_error_names_the_last_truncation_run():
    # n_max = 2, 4 and 8 all leak; 16 was never run
    protocol = QuenchProtocol(g_f=0.999 * G_C, tau_q=50.0, r=R, n_max=2, dt=1.0)
    with pytest.raises(ConvergenceError, match=r"basis leakage .* at n_max=8$"):
        propagate(protocol)
