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

The rungs of that tower are evenly spaced in u = asinh(x), so the
operator is discretized on a uniform u grid over (-asinh L, asinh L),
x = sinh(u): with J = cosh(u) the equation reads

    -d/du[(1/J) dphi/du] + J V phi = E J phi,

central differences with 1/J at the cell midpoints keep it symmetric,
and psi = sqrt(J) phi makes it a standard symmetric tridiagonal
eigenproblem.  h is the x-spacing at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import CollapseMappingError
from .model import CONTINUUM_EDGE, ModelParams, check_count, check_finite, check_positive
from . import ed

_CONTINUUM_LEVELS = 20  # the delta = 0 check reads the widest spacing of this many levels


@dataclass(frozen=True)
class Collapse1DProblem:
    """Finite-difference setting: Dirichlet box [-L, L] on the sinh-mapped grid.

    h is the x-spacing at the origin: the grid takes round(asinh(L)/h)
    equal u-steps per side, and needs at least two interior nodes on
    each side of the origin.
    """

    delta: float
    L: float = 400.0
    h: float = 0.05

    def __post_init__(self):
        check_finite(delta=self.delta)
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        check_positive(L=self.L, h=self.h)
        n = _steps(self.L, self.h)
        if n < 3:
            raise ValueError(
                f"h={self.h} is too coarse for L={self.L}: the sinh-mapped grid needs 2 "
                f"interior nodes per side, round(asinh(L)/h) = {n} steps leave {max(n - 1, 0)}"
            )


@dataclass(frozen=True)
class BoundStateLadder:
    """Binding energies kappa^4 (descending), their consecutive ratios, parities.

    refinement holds each level's relative change against the (2L, h/2)
    solve, the number the 0.5% gate reads; rows is the size of the
    (L, h) grid.
    """

    binding_energies: np.ndarray
    ratios: np.ndarray
    ratio_plateau: float
    parities: np.ndarray
    converged: np.ndarray
    refinement: np.ndarray
    rows: int


def effective_potential(delta: float, x):
    """V(x) = -Delta^2 / (4 (x^2 + 1)); inverse-square tail as x -> inf."""
    x = np.asarray(x, dtype=float)
    v = -delta * delta / (4.0 * (x * x + 1.0))
    return v if v.ndim else float(v)


def _steps(L: float, h: float) -> int:
    """u-steps per side of the sinh-mapped grid with origin spacing h."""
    return round(math.asinh(L) / h)


def _solve_grid(delta: float, L: float, h: float, k: int, eigvals_only: bool = False):
    """Lowest k levels (and, unless eigvals_only, vectors) on the (L, h) sinh-mapped grid."""
    n = _steps(L, h)
    du = math.asinh(L) / n
    u = np.arange(1 - n, n) * du  # symmetric nodes, walls at u = +-n du
    jac = np.cosh(u)
    inv_mid = 1.0 / np.cosh((np.arange(-n, n) + 0.5) * du) / (du * du)
    diag = (inv_mid[:-1] + inv_mid[1:]) / jac + effective_potential(delta, np.sinh(u))
    off = -inv_mid[1:-1] / np.sqrt(jac[:-1] * jac[1:])
    k_solve = min(k, len(u) - 1)
    return eigh_tridiagonal(diag, off, eigvals_only=eigvals_only, select="i",
                            select_range=(0, k_solve - 1))


def bound_states(problem: Collapse1DProblem, k: int = 6) -> BoundStateLadder:
    """Lowest k bound levels, each gated by a (2L, h/2) refinement to 0.5%.

    Both solves run on the sinh-mapped grid, h being its origin spacing.
    Levels that fail the refinement gate (or are not bound at all) are
    flagged, never silently reported; the ratio plateau averages the
    deepest converged consecutive ratios.  Resolving more than a few
    rungs needs boxes far beyond the shallowest level's 1/kappa^2 decay
    length, which the mapped grid reaches in O(log L) rows.
    """
    check_count("k", k)
    w, v = _solve_grid(problem.delta, problem.L, problem.h, k)
    w_ref = _solve_grid(problem.delta, 2 * problem.L, problem.h / 2, k, eigvals_only=True)

    bound = w < 0
    kappa4 = -w[bound]
    vectors = v[:, bound]
    kappa4_ref = -w_ref[: len(kappa4)]

    converged = np.zeros(k, dtype=bool)
    out_k4 = np.full(k, np.nan)
    out_par = np.zeros(k, dtype=int)
    refinement = np.full(k, np.nan)
    for i in range(min(k, len(kappa4))):
        out_k4[i] = kappa4[i]
        if kappa4_ref[i] > 0:
            refinement[i] = abs(kappa4[i] - kappa4_ref[i]) / kappa4_ref[i]
            converged[i] = refinement[i] <= 5e-3
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
        refinement=refinement,
        rows=len(v),
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
    n_max_used: dict  # x-parity -> the ladder rung its levels came from, n_max the ceiling
    held: dict  # x-parity -> whether its levels moved by at most 1e-6 of kappa^2 at that rung
    # Delta = 0 path; degeneracy_gap is the largest entry difference of the parity blocks
    spacings_by_n_max: list
    degeneracy_gap: float


def _collapse_levels(delta: float, n_max: int, q: float) -> np.ndarray:
    params = ModelParams(delta=delta, g=0.5, r=1.0)
    levels = []
    for parity in (+1, -1):
        block = ed.build_parity_block(params, parity, n_max, q=q)
        levels.append(eigh_tridiagonal(block.diag, block.offdiag, eigvals_only=True, select="v",
                                       select_range=(-np.inf, CONTINUUM_EDGE)))
    return np.sort(np.concatenate(levels))


def check_collapse_inputs(delta: float, n_max: int) -> None:
    """Reject, by name, a delta or n_max that collapse_hamiltonian_check cannot take.

    delta must be 0 or above 1.  At delta = 0 the continuum ladder reads
    level _CONTINUUM_LEVELS - 1 of a block of n_max // 4 rows.
    """
    check_finite(delta=delta)
    if delta == 0.0:
        check_count("n_max", n_max, 4 * _CONTINUUM_LEVELS)
    elif delta > 1.0:
        check_count("n_max", n_max, 2)
    else:
        raise ValueError(f"delta={delta}: check defined for delta == 0 (continuum) "
                         "or delta > 1 (bound tower)")


def collapse_hamiltonian_check(delta: float, n_max: int = 16384) -> CollapseCheckReport:
    """Cross-validate the quadrature-form collapse Hamiltonian against the 1D solver.

    Delta = 0: the discrete levels above -1/2 crowd together as n_max grows (loss of
    confinement -> continuum): the widest spacing of the lowest _CONTINUUM_LEVELS
    parity -1 levels, the top pair's as the levels are squared Hermite zeros less 1/2,
    shrinks over n_max/4, n_max/2, n_max.  Every level is doubly degenerate across
    parity: the two blocks at n_max differ by at most degeneracy_gap in any entry, so no
    level by more than 3 times it (Weyl).  Delta > 1: the bound levels below -1/2, on blocks
    doubled from 1,024 rows up to n_max until they move by at most 1e-6 of kappa^2 (held
    says per x-parity whether they did, n_max_used at which rung), must reproduce
    -1/2 - kappa_n^2 from the 1D ladder, even-x levels in the even photon sector and
    odd-x in the odd one.  Disagreement beyond 1e-3 relative on kappa^2
    raises CollapseMappingError with the report attached.  Inputs check_collapse_inputs
    rejects raise ValueError before any solve.
    """
    check_collapse_inputs(delta, n_max)
    if delta == 0.0:
        params = ModelParams(delta=0.0, g=0.5, r=1.0)
        spacings = []
        for nm in (n_max // 4, n_max // 2, n_max):
            block = ed.build_parity_block(params, -1, nm)
            w = eigh_tridiagonal(block.diag, block.offdiag, eigvals_only=True, select="i",
                                 select_range=(_CONTINUUM_LEVELS - 2, _CONTINUUM_LEVELS - 1))
            spacings.append(float(w[1] - w[0]))
        # the ladder's top rung is the parity -1 side of the degeneracy check
        block_p = ed.build_parity_block(params, +1, n_max)
        gap = max(float(np.abs(getattr(block_p, name) - getattr(block, name)).max())
                  for name in ("diag", "offdiag"))
        consistent = all(b < a for a, b in zip(spacings, spacings[1:])) and gap < 1e-10
        report = CollapseCheckReport(
            delta=delta, n_max=n_max, consistent=consistent, n_max_used={}, held={},
            matched_even=[], matched_odd=[], spacings_by_n_max=spacings, degeneracy_gap=gap,
        )
        if not consistent:
            raise CollapseMappingError("collapse continuum/degeneracy check failed", report)
        return report

    ladder = bound_states(Collapse1DProblem(delta=delta, L=400.0, h=0.025), k=6)
    kappa4 = ladder.binding_energies[ladder.converged]
    parities = ladder.parities[ladder.converged]
    mapped = CONTINUUM_EDGE - np.sqrt(kappa4)

    matched, n_used, held = {+1: [], -1: []}, {}, {}
    for q, xpar in ((0.25, +1), (0.75, -1)):
        targets = mapped[parities == xpar]
        if not len(targets):
            continue
        m = min(3, len(targets))

        def still(new, old):  # the first m levels moved by at most 1e-6 of their kappa^2
            return min(len(new), len(old)) >= m and bool(np.all(
                np.abs(new[:m] - old[:m]) <= 1e-6 * (CONTINUUM_EDGE - new[:m])))

        levels, previous, n_used[xpar] = ed.converge(
            lambda n, _: _collapse_levels(delta, n, q), min(1024, n_max), n_max, still)
        held[xpar] = previous is not None and still(levels, previous)
        for e_block, e_map in zip(levels[:m], targets):
            k2_block, k2_map = CONTINUUM_EDGE - e_block, CONTINUUM_EDGE - e_map
            rel = abs(k2_block - k2_map) / abs(k2_map)
            matched[xpar].append((float(e_block), float(e_map), float(rel)))

    all_rows = matched[+1] + matched[-1]
    consistent = bool(all_rows) and all(rel < 1e-3 for _, _, rel in all_rows)
    report = CollapseCheckReport(
        delta=delta, n_max=n_max, consistent=consistent,
        matched_even=matched[+1], matched_odd=matched[-1], n_max_used=n_used, held=held,
        spacings_by_n_max=[], degeneracy_gap=math.nan,
    )
    if not consistent:
        raise CollapseMappingError(
            "collapse-point levels disagree with the 1D mapping beyond tolerance", report
        )
    return report
