import math

import numpy as np
import pytest

from tpqrm import ed
from tpqrm.aa import aa_energy
from tpqrm.model import MAX_ENTRIES, ModelParams, SectorSpec, check_budget, critical_params, geometry
from tpqrm.specfun import squeeze_element, squeeze_matrix


def test_critical_params_values():
    assert critical_params(0.60) == (0.625, 0.25)
    assert critical_params(1.0) == (0.5, 0.0)
    assert critical_params(0.0) == (1.0, 1.0)


@pytest.mark.parametrize("r", [-0.1, 1.1, 2.0])
def test_critical_params_rejects_out_of_range(r):
    with pytest.raises(ValueError):
        critical_params(r)


def test_geometry_zero_coupling():
    geo = geometry(ModelParams(delta=0.3, g=0.0, r=0.6))
    assert geo.beta == 1.0
    assert geo.theta == 0.0
    assert not geo.at_collapse


def test_geometry_closed_form_point():
    p = ModelParams(delta=0.25, g=0.6 * 0.625, r=0.6)
    geo = geometry(p)
    assert geo.beta == pytest.approx(0.8, abs=1e-15)
    assert geo.theta == pytest.approx(math.log(2.0) / 2.0, abs=1e-12)


def test_geometry_keeps_theta_at_small_coupling():
    # theta = atanh(x)/2 = (x + x^3/3 + ...)/2; the log-ratio form loses 1e-16/x relative
    x = 1e-8
    geo = geometry(ModelParams(delta=0.3, g=x, r=0.0))  # g_c = 1, so g/g_c = x exactly
    assert abs(geo.theta / ((x + x**3 / 3) / 2) - 1.0) <= 1e-15


def test_geometry_collapse_point_flagged():
    geo = geometry(ModelParams(delta=0.25, g=0.625, r=0.6))
    assert geo.at_collapse
    assert geo.beta == 0.0
    assert math.isinf(geo.theta)


def test_supercritical_coupling_rejected():
    with pytest.raises(ValueError):
        ModelParams(delta=0.25, g=0.626, r=0.6)
    with pytest.raises(ValueError):
        ModelParams(delta=-0.1, g=0.1, r=0.6)
    for r in (-0.1, 1.5):
        with pytest.raises(ValueError, match=rf"^anisotropy r={r} outside \[0, 1\]$"):
            ModelParams(delta=0.1, g=0.1, r=r)
    with pytest.raises(TypeError):  # the mode frequency is the unit; there is no omega field
        ModelParams(delta=0.1, g=0.1, r=0.6, omega=2.0)
    for field, bad in (("delta", math.nan), ("delta", math.inf), ("g", math.nan)):
        with pytest.raises(ValueError, match=f"{field}={bad} must be finite"):
            ModelParams(**{"delta": 0.1, "g": 0.1, "r": 0.6, field: bad})


def test_negative_coupling_rejected_by_name():
    with pytest.raises(ValueError, match=r"^coupling g=-0.1 must be >= 0$"):
        ModelParams(delta=0.1, g=-0.1, r=0.6)


def test_beta_theta_identity_random_sample():
    # beta * cosh(2 theta) == 1 across the whole parameter domain
    rng = np.random.default_rng(20250809)
    worst = 0.0
    for _ in range(10_000):
        r = rng.uniform(0.0, 1.0)
        g = rng.uniform(0.0, 0.999999) / (1.0 + r)
        geo = geometry(ModelParams(delta=0.0, g=g, r=r))
        worst = max(worst, abs(geo.beta * math.cosh(2.0 * geo.theta) - 1.0))
    assert worst < 1e-12


def test_geometry_is_pure():
    p = ModelParams(delta=0.25, g=0.5, r=0.6)
    a, b = geometry(p), geometry(p)
    assert a == b


def test_beta_strictly_decreasing_in_g():
    r = 0.35
    gs = np.linspace(0.0, 0.999, 400) / (1.0 + r)
    betas = [geometry(ModelParams(delta=0.0, g=g, r=r)).beta for g in gs]
    assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))


def test_sector_spec_validation():
    assert SectorSpec() == SectorSpec(0.25, -1)  # the ground state's sector is the default
    with pytest.raises(ValueError):
        SectorSpec(0.5, +1)
    with pytest.raises(ValueError):
        SectorSpec(0.25, 0)


_P = ModelParams(delta=0.6, g=0.3, r=0.25)
_PARITY_CALLS = {  # every entry point that takes a Z2 label: (its name, a call with it)
    "SectorSpec": ("parity", lambda v: SectorSpec(0.25, v)),
    "build_parity_block": ("parity", lambda v: ed.build_parity_block(_P, v, 8)),
    "squeezed_frame_spectrum": ("parity", lambda v: ed.squeezed_frame_spectrum(_P, v, 16, k=2)),
    "aa_energy": ("parity", lambda v: aa_energy(0, v, _P)),
    "squeeze_element": ("sign", lambda v: squeeze_element(1, 0, 0.3, v)),
    "squeeze_matrix": ("sign", lambda v: squeeze_matrix(0.3, 4, v)),
}


@pytest.mark.parametrize("call", sorted(_PARITY_CALLS))
def test_a_parity_must_be_the_integer_plus_or_minus_one(call):
    # True == 1 and 1.0 == 1 used to pass `parity in (+1, -1)`
    name, entry = _PARITY_CALLS[call]
    for bad in (True, False, np.bool_(True), 1.0, -1.0, 0, 2, None):
        with pytest.raises(ValueError, match=rf"^{name} must be \+1 or -1$"):
            entry(bad)
    for good in (+1, -1, np.int64(-1), np.int8(1)):
        entry(good)


def test_the_entry_budget_admits_the_pinned_sizes():
    # the frame's S (481^2) and the budget itself pass; one more row past 2896^2 does not
    assert MAX_ENTRIES == 2**23
    for entries in (481**2, 2896**2, 2**23, float(2**23)):
        check_budget("n_max=2896", entries)
    with pytest.raises(ValueError, match=r"^n_max=2897 needs an array of 8.39e\+06 entries, above 8388608$"):
        check_budget("n_max=2897", 2897**2)
    with pytest.raises(ValueError, match=r"^points=9 needs a lattice of inf entries, above 8388608$"):
        check_budget("points=9", math.inf, "a lattice of {:.3g} entries")
