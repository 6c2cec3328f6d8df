import numpy as np
import pytest

from tpqrm.analysis import fit_powerlaw, fit_quadratic_gap, make_grid, powerlaw_points


def test_powerlaw_exact_on_synthetic_data():
    u = np.geomspace(1e-3, 1e-1, 12)
    fit = fit_powerlaw(u, 3.0 * u**0.5)
    assert fit.exponent == pytest.approx(0.5, abs=1e-10)
    assert fit.amplitude == pytest.approx(3.0, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 12


def test_powerlaw_window_restriction():
    u = np.geomspace(1e-4, 1e-1, 16)
    y = 2.0 * u**-1.25
    fit = fit_powerlaw(u, y, window=(1e-3, 1e-2))
    assert fit.exponent == pytest.approx(-1.25, abs=1e-10)
    assert fit.window[0] >= 1e-3 and fit.window[1] <= 1e-2
    assert fit.n_points >= 5


def test_powerlaw_input_validation():
    u = np.geomspace(1e-3, 1e-1, 6)
    with pytest.raises(ValueError):
        fit_powerlaw(u, -np.ones_like(u))
    with pytest.raises(ValueError):
        fit_powerlaw(u[:4], (u**2)[:4])
    with pytest.raises(ValueError):
        fit_powerlaw(u, u[:-1])


def test_quadratic_gap_synthetic():
    delta_c = 0.25
    deltas = delta_c - np.linspace(0.02, 0.12, 8)
    gaps = 2.0 * (deltas - delta_c) ** 2
    fit = fit_quadratic_gap(deltas, gaps, delta_c)
    assert fit.exponent == pytest.approx(2.0, abs=1e-10)
    assert fit.amplitude == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared > 0.999999


def test_quadratic_gap_validation():
    with pytest.raises(ValueError):
        fit_quadratic_gap([0.1, 0.2], [1.0, 2.0], 0.25)


def test_quadratic_gap_rejects_mismatched_shapes_by_name():
    with pytest.raises(ValueError, match="^delta_values and gaps must have matching shapes$"):
        fit_quadratic_gap([0.1, 0.2, 0.3, 0.4, 0.5], [1.0, 2.0, 3.0, 4.0], 0.25)


def test_flat_data_fit_exactly():
    # log y = 0 at every point: no spread to explain, so R^2 is 1 by definition
    u = np.geomspace(1e-3, 1e-1, 6)
    fit = fit_powerlaw(u, np.ones_like(u))
    assert (fit.exponent, fit.amplitude, fit.r_squared) == (pytest.approx(0.0, abs=1e-12),
                                                            pytest.approx(1.0), 1.0)


def test_fit_result_serialization():
    u = np.geomspace(1e-2, 1e-1, 6)
    payload = fit_powerlaw(u, u**2).to_dict()
    assert set(payload) == {"exponent", "amplitude", "r_squared", "window", "n_points"}


def test_make_grid_mapping():
    grid = make_grid(1.0, 3.0, 3, r=0.6)
    g_c = 0.625
    assert grid.g_values[0] == pytest.approx(0.9 * g_c, rel=1e-14)
    assert grid.g_values[-1] == pytest.approx(0.999 * g_c, rel=1e-14)
    assert np.all(np.diff(grid.x_values) > 0)
    assert np.all(grid.g_values < g_c)


def test_make_grid_beta_range():
    grid = make_grid(1.0, 3.0, 21, r=0.6)
    betas = np.sqrt(1.0 - (grid.g_values / 0.625) ** 2)
    assert betas.min() == pytest.approx(0.0447, abs=2e-4)
    assert betas.max() == pytest.approx(0.4359, abs=2e-4)


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(2.0, 1.0, 5, r=0.6)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 1, r=0.6)


@pytest.mark.parametrize("bounds,name", [((1.5, np.inf), "x_max"), ((np.nan, 3.0), "x_min")])
def test_make_grid_rejects_a_non_finite_bound_by_name(bounds, name):
    with pytest.raises(ValueError, match=f"^{name}=(inf|nan) must be finite$"):
        make_grid(*bounds, 3, r=0.6)


@pytest.mark.parametrize("window,name", [((0.0, np.inf), "window_hi"),
                                         ((-np.inf, 1.0), "window_lo")])
def test_powerlaw_points_rejects_a_non_finite_window_bound_by_name(window, name):
    u = np.geomspace(1e-3, 1e-1, 6)
    with pytest.raises(ValueError, match=f"^{name}=-?inf must be finite$"):
        powerlaw_points(u, u**2, window)
