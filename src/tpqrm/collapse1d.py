"""Isotropic collapse point: effective 1D problem and bound-state tower.

At r = 1, g = g_c = 1/2 the Hamiltonian in quadrature form is

    H_c = 1/2 [[x^2 - 1, -Delta], [-Delta, p^2 - 1]],   p = -2i d/dx,

with a continuum above E_c = -1/2.  Eliminating the first component for
a bound level E = -1/2 - kappa^2 and rescaling x -> sqrt(2) kappa x
turns the problem into the kappa-independent eigenvalue equation

    -phi'' - Delta^2 / (4 (x^2 + 1)) phi = -kappa^4 phi,

so every eigenvalue -kappa_n^4 of the fixed 1D operator maps explicitly
to a collapse-Hamiltonian level E_n = -1/2 - kappa_n^2 (even-x
eigenfunctions land in the even photon subspace, odd-x in the odd one).
The inverse-square tail binds an infinite tower accumulating
geometrically at the threshold; the tail supports bound states only
when its coefficient Delta^2/4 exceeds the critical 1/4, i.e. Delta > 1
(standard inverse-square-potential theory, used here only as an
applicability note and an optional ratio cross-check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import CollapseMappingError
from .model import ModelParams, check_count, check_finite
from . import ed


@dataclass(frozen=True)
class Collapse1DProblem:
    """Finite-difference setting: Dirichlet box [-L, L] with spacing h."""

    delta: float
    L: float = 400.0
    h: float = 0.05

    def __post_init__(self):
        check_finite(delta=self.delta, L=self.L, h=self.h)
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.L <= 0 or self.h <= 0 or self.h >= self.L:
            raise ValueError("need 0 < h < L")


@dataclass(frozen=True)
class BoundStateLadder:
    """Binding energies kappa^4 (descending), their consecutive ratios, parities."""

    binding_energies: np.ndarray
    ratios: np.ndarray
    ratio_plateau: float
    parities: np.ndarray
    converged: np.ndarray
    L: float
    h: float


def effective_potential(delta: float, x):
    """V(x) = -Delta^2 / (4 (x^2 + 1)); inverse-square tail as x -> inf."""
    x = np.asarray(x, dtype=float)
    v = -delta * delta / (4.0 * (x * x + 1.0))
    return v if v.ndim else float(v)


def _solve_grid(delta: float, L: float, h: float, k: int):
    x = np.arange(-L + h, L, h)
    diag = 2.0 / (h * h) + effective_potential(delta, x)
    off = np.full(len(x) - 1, -1.0 / (h * h))
    k_solve = min(k, len(x) - 1)
    w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, k_solve - 1))
    return w, v


def bound_states(problem: Collapse1DProblem, k: int = 6) -> BoundStateLadder:
    """Lowest k bound levels, each gated by a (2L, h/2) refinement to 0.5%.

    Levels that fail the refinement gate (or are not bound at all) are
    flagged, never silently reported; the ratio plateau averages the
    deepest converged consecutive ratios.  Resolving more than a few
    rungs needs boxes far beyond the shallowest level's 1/kappa^2 decay
    length.
    """
    check_count("k", k)
    w, v = _solve_grid(problem.delta, problem.L, problem.h, k)
    w_ref, _ = _solve_grid(problem.delta, 2 * problem.L, problem.h / 2, k)

    bound = w < 0
    kappa4 = -w[bound]
    vectors = v[:, bound]
    kappa4_ref = -w_ref[: len(kappa4)]

    converged = np.zeros(k, dtype=bool)
    out_k4 = np.full(k, np.nan)
    out_par = np.zeros(k, dtype=int)
    for i in range(min(k, len(kappa4))):
        out_k4[i] = kappa4[i]
        if kappa4_ref[i] > 0:
            converged[i] = abs(kappa4[i] - kappa4_ref[i]) <= 5e-3 * kappa4_ref[i]
        flipped = vectors[::-1, i]
        even = np.linalg.norm(vectors[:, i] - flipped) < np.linalg.norm(vectors[:, i] + flipped)
        out_par[i] = +1 if even else -1

    ratios = out_k4[1:] / out_k4[:-1]
    pair_ok = converged[1:] & converged[:-1]
    good = np.nonzero(pair_ok & np.isfinite(ratios))[0]
    plateau = float(np.mean(ratios[good[-3:]])) if len(good) else math.nan
    return BoundStateLadder(
        binding_energies=out_k4,
        ratios=ratios,
        ratio_plateau=plateau,
        parities=out_par,
        converged=converged,
        L=problem.L,
        h=problem.h,
    )


def geometric_ratio_theory(delta: float) -> float:
    """Inverse-square-tail ratio exp(-2 pi / sqrt(Delta^2/4 - 1/4)).

    External single-ladder theory (not derived in this package's own
    solvers); exposed purely as a cross-check against the measured
    same-parity plateau.
    """
    if delta <= 1.0:
        raise ValueError("geometric tower needs the tail coefficient above 1/4 (Delta > 1)")
    return math.exp(-2.0 * math.pi / math.sqrt(delta * delta / 4.0 - 0.25))


@dataclass(frozen=True)
class CollapseCheckReport:
    delta: float
    n_max: int
    consistent: bool
    # Delta > 1 path: rows (E_block, E_mapped_from_1d, rel_err on kappa^2)
    matched_even: list
    matched_odd: list
    # Delta = 0 path
    spacings_by_n_max: list
    degeneracy_gap: float


def _collapse_levels(delta: float, n_max: int, q: float) -> np.ndarray:
    params = ModelParams(delta=delta, g=0.5, r=1.0)
    levels = []
    for parity in (+1, -1):
        block = ed.build_parity_block(params, parity, n_max, q=q)
        w = eigh_tridiagonal(
            block.diag, block.offdiag, eigvals_only=True, select="v", select_range=(-np.inf, -0.5)
        )
        levels.extend(w.tolist())
    return np.sort(np.array(levels))


def collapse_hamiltonian_check(
    delta: float, n_max: int = 16384, rel_tol: float = 1e-3
) -> CollapseCheckReport:
    """Cross-validate the quadrature-form collapse Hamiltonian against the 1D solver.

    Delta = 0: the discrete levels above -1/2 crowd together as n_max
    grows (loss of confinement -> continuum) and every level is doubly
    degenerate across parity.  Delta > 1: the bound levels below -1/2
    must reproduce -1/2 - kappa_n^2 from the 1D ladder, even-x levels in
    the even photon sector and odd-x in the odd one.  Disagreement
    beyond rel_tol on kappa^2 raises CollapseMappingError with the
    report attached.
    """
    if delta == 0.0:
        params = ModelParams(delta=0.0, g=0.5, r=1.0)
        spacings = []
        for nm in (n_max // 4, n_max // 2, n_max):
            block = ed.build_parity_block(params, -1, nm)
            w = eigh_tridiagonal(
                block.diag, block.offdiag, eigvals_only=True, select="i", select_range=(0, 19)
            )
            spacings.append(float(np.diff(w).max()))
        # the ladder's top rung is the parity -1 side of the degeneracy check
        block_p = ed.build_parity_block(params, +1, n_max)
        wp = eigh_tridiagonal(block_p.diag, block_p.offdiag, eigvals_only=True,
                              select="i", select_range=(0, 19))
        gap = float(np.abs(wp - w).max())
        consistent = all(b < a for a, b in zip(spacings, spacings[1:])) and gap < 1e-10
        report = CollapseCheckReport(
            delta=delta, n_max=n_max, consistent=consistent,
            matched_even=[], matched_odd=[], spacings_by_n_max=spacings, degeneracy_gap=gap,
        )
        if not consistent:
            raise CollapseMappingError("collapse continuum/degeneracy check failed", report)
        return report

    if delta <= 1.0:
        raise ValueError("check defined for delta == 0 (continuum) or delta > 1 (bound tower)")

    ladder = bound_states(Collapse1DProblem(delta=delta, L=400.0, h=0.025), k=6)
    kappa4 = ladder.binding_energies[ladder.converged]
    parities = ladder.parities[ladder.converged]
    mapped = -0.5 - np.sqrt(kappa4)

    matched = {+1: [], -1: []}
    for q, xpar in ((0.25, +1), (0.75, -1)):
        targets = mapped[parities == xpar]
        if not len(targets):
            continue
        levels = _collapse_levels(delta, n_max, q)
        for i in range(min(3, len(targets), len(levels))):
            k2_block = -0.5 - levels[i]
            k2_map = -0.5 - targets[i]
            rel = abs(k2_block - k2_map) / abs(k2_map)
            matched[xpar].append((float(levels[i]), float(targets[i]), float(rel)))

    all_rows = matched[+1] + matched[-1]
    consistent = bool(all_rows) and all(rel < rel_tol for _, _, rel in all_rows)
    report = CollapseCheckReport(
        delta=delta, n_max=n_max, consistent=consistent,
        matched_even=matched[+1], matched_odd=matched[-1],
        spacings_by_n_max=[], degeneracy_gap=math.nan,
    )
    if not consistent:
        raise CollapseMappingError(
            "collapse-point levels disagree with the 1D mapping beyond tolerance", report
        )
    return report
