"""Exponent extraction and the log-distance sampling grids.

Critical scans are sampled uniformly in x = -log10(1 - g/g_c), the
horizontal axis of every scaling figure; power laws are fitted by plain
unweighted least squares in log-log coordinates (the data are
deterministic, so no error weighting), and the collapse-point gap
opening is fitted affinely against (Delta - Delta_c)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import check_finite, critical_params

MIN_FIT_POINTS = 5  # fewest points either fit accepts


@dataclass(frozen=True)
class FitResult:
    """Power-law exponent (or quadratic coefficient), prefactor, and fit quality."""

    exponent: float
    amplitude: float
    r_squared: float
    window: tuple[float, float]
    n_points: int


@dataclass(frozen=True)
class SampleGrid:
    """Uniform grid in x = -log10(1 - g/g_c) and the couplings it maps to."""

    x_values: np.ndarray
    g_values: np.ndarray


def _r_squared(y: np.ndarray, pred: np.ndarray) -> float:
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return max(0.0, min(1.0, 1.0 - ss_res / ss_tot))


def powerlaw_points(
    abscissa, ordinate, window: tuple[float, float] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The finite points inside window (inclusive) that fit_powerlaw fits.

    Raises ValueError unless there are >= 5 of them, all strictly positive,
    or if a window bound is not finite.
    """
    u = np.asarray(abscissa, dtype=float)
    y = np.asarray(ordinate, dtype=float)
    if u.shape != y.shape:
        raise ValueError("abscissa and ordinate must have matching shapes")
    mask = np.isfinite(u) & np.isfinite(y)
    if window is not None:
        lo, hi = window
        check_finite(window_lo=lo, window_hi=hi)
        mask &= (u >= lo) & (u <= hi)
    u, y = u[mask], y[mask]
    if len(u) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} points in the window, got {len(u)}")
    if np.any(u <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs strictly positive data")
    return u, y


def fit_powerlaw(
    abscissa, ordinate, window: tuple[float, float] | None = None
) -> FitResult:
    """Least-squares line in (log u, log y): y = amplitude * u^exponent.

    window restricts the abscissa range (inclusive).  Requires >= 5
    strictly positive points inside the window (powerlaw_points).
    """
    u, y = powerlaw_points(abscissa, ordinate, window)
    slope, intercept = np.polyfit(np.log(u), np.log(y), 1)
    pred = intercept + slope * np.log(u)
    return FitResult(
        exponent=float(slope),
        amplitude=float(math.exp(intercept)),
        r_squared=_r_squared(np.log(y), pred),
        window=(float(u.min()), float(u.max())),
        n_points=len(u),
    )


def fit_quadratic_gap(delta_values, gaps, delta_c: float) -> FitResult:
    """Affine fit of gap against (Delta - Delta_c)^2.

    The reported exponent field holds the quadratic coefficient, the
    amplitude field the intercept (ideally ~0; the collapse-point
    truncation floor keeps it finite in practice).
    """
    d = np.asarray(delta_values, dtype=float)
    y = np.asarray(gaps, dtype=float)
    if d.shape != y.shape:
        raise ValueError("delta_values and gaps must have matching shapes")
    mask = np.isfinite(d) & np.isfinite(y)
    d, y = d[mask], y[mask]
    if len(d) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} points, got {len(d)}")
    dsq = (d - delta_c) ** 2
    design = np.vstack([dsq, np.ones_like(dsq)]).T
    (coef, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ np.array([coef, intercept])
    return FitResult(
        exponent=float(coef),
        amplitude=float(intercept),
        r_squared=_r_squared(y, pred),
        window=(float(dsq.min()), float(dsq.max())),
        n_points=len(d),
    )


def make_grid(x_min: float, x_max: float, n: int, r: float) -> SampleGrid:
    """n couplings uniform in x = -log10(1 - g/g_c), mapped to g = g_c (1 - 10^-x)."""
    check_finite(x_min=x_min, x_max=x_max)
    if not 0.0 <= x_min < x_max:
        raise ValueError("need 0 <= x_min < x_max")
    if n < 2:
        raise ValueError("need at least 2 grid points")
    g_c, _ = critical_params(r)
    x = np.linspace(x_min, x_max, n)
    return SampleGrid(x_values=x, g_values=g_c * (1.0 - 10.0 ** (-x)))
