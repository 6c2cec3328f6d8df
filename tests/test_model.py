import math

import numpy as np
import pytest

from tpqrm.model import (
    ModelParams,
    SectorSpec,
    critical_params,
    geometry,
    params_from_dict,
)


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


def test_geometry_collapse_point_flagged():
    geo = geometry(ModelParams(delta=0.25, g=0.625, r=0.6))
    assert geo.at_collapse
    assert geo.beta == 0.0
    assert math.isinf(geo.theta)
    assert geo.e_collapse == -0.5


def test_supercritical_coupling_rejected():
    with pytest.raises(ValueError):
        ModelParams(delta=0.25, g=0.626, r=0.6)
    with pytest.raises(ValueError):
        ModelParams(delta=-0.1, g=0.1, r=0.6)
    with pytest.raises(ValueError):
        ModelParams(delta=0.1, g=0.1, r=0.6, omega=2.0)
    for field, bad in (("delta", math.nan), ("delta", math.inf), ("g", math.nan)):
        with pytest.raises(ValueError, match=f"{field}={bad} must be finite"):
            ModelParams(**{"delta": 0.1, "g": 0.1, "r": 0.6, field: bad})


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
    s = SectorSpec(0.25, -1)
    assert s.even
    assert not SectorSpec(0.75, +1).even
    with pytest.raises(ValueError):
        SectorSpec(0.5, +1)
    with pytest.raises(ValueError):
        SectorSpec(0.25, 0)


def test_params_from_dict_critical_delta():
    p = params_from_dict({"delta": "critical", "g_over_gc": 0.9, "r": 0.6})
    assert p.delta == 0.25
    assert p.g == pytest.approx(0.9 * 0.625)


def test_params_from_dict_rejects_bad_keys():
    with pytest.raises(ValueError):
        params_from_dict({"delta": 0.1, "g": 0.1, "g_over_gc": 0.5, "r": 0.6})
    with pytest.raises(ValueError):
        params_from_dict({"delta": 0.1, "r": 0.6})
    with pytest.raises(ValueError):
        params_from_dict({"delta": 0.1, "g": 0.1, "r": 0.6, "extra": 1})
