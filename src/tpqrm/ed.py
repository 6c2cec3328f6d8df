"""Exact diagonalization in the symmetry-resolved basis.

The Z4 symmetry -sigma_x exp(i pi/2 a'a) splits the Hilbert space into
even/odd photon subspaces (Bargmann q = 1/4, 3/4), each with a residual
Z2 parity p.  On the combinations

    |n; p> = (|up, f_n> + s_n |down, f_n>) / sqrt(2),
    s_n = -p (-1)^n,   f_n = 2n (+1 in the odd subspace),

the Hamiltonian is real symmetric tridiagonal:

    diag_n     = f_n - (Delta/2) s_n
    offdiag_n  = g sqrt((f_n+1)(f_n+2)) [ (1+r) - (1-r) s_n ] / 2 .

This closed form is a derived projection, not given anywhere in closed
form; the test suite checks it entrywise against the dense spin (x) Fock
Hamiltonian projected onto these combinations, across the parameter space.

A second, independent route diagonalizes the squeezed-frame matrix
diag[(2m+1/2) beta - 1/2] + p M_mn (couplings from aa); the two frames
cross-validate each other.  Every truncation ladder, quench's basis and dt
ladders too, runs on converge, which hands each rung the rung below's
result and returns its gate's verdict.  Every rung takes its
block's lowest eigenpairs through one door, _lowest_pairs, which picks a
certified kernel or bisection: _ground_pair for one pair with no rung
below (bisection up to 512 rows; above, certified inverse iteration from
the ground state's sign pattern, residuals read off each solve; also
lowest_level's kernel, which at g = g_c first tries the continuum edge
-1/2 as its shift), and above 256 rows every later rung starts from
the rung below's eigenpairs (_warm_pairs: Rayleigh-quotient iteration
certified by Sturm counts, level 0's residuals read off each solve,
bisection when a certificate fails; only the ground ladders solve once
more for vectors).  Ground-state observables and Wigner grids are
computed from the bare-Fock ground vector mapped back to spin (x) Fock.
The coupling quantum Fisher information and quench's chi_3 need no
excited states: each is a truncation ladder of _response_rung's
tridiagonal solves with the ground-state resolvent (H - E_0)^+ on the
ground block, held by _response_held.  F_Q's parity selection rule is one
projection of dH/dg |0> onto every |n; +>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
# eig, eval_genlaguerre: bound only as perfbench tracer leaves until ROADMAP direction 1, part A
from scipy.linalg import eig, eigh, eigh_tridiagonal  # noqa: F401
from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs, dstebz
from scipy.special import eval_genlaguerre, gammaln, xlogy  # noqa: F401

from .aa import GroundStateObservables, _bare_level, aa_matrix
from .errors import ConvergenceError
from .model import (CONTINUUM_EDGE, ModelParams, SectorSpec, check_count, check_finite,
                    check_parity, check_positive, geometry)
from .specfun import _BLOCK_ENTRIES, _LOG_RESCALE, _RESCALE

N_MAX_CEILING = 16384
_RESOLVENT_RES_TOL = 1e-7  # |(H - E_0) x - rhs| / |rhs|; see _ground_resolvent
_BISECTION_ROWS = 512  # _ground_pair bisects blocks up to this size, never iterates them
_WARM_ROWS = 256  # a ladder rung above this size starts from the rung below's pairs
_INVERSE_ITERATIONS = 40  # cap on the shift search, and on the iteration steps of each level
_RESPONSE_REL_TOL = 1e-6  # doubling gate of _response_held
_WIGNER_MAX_ENTRIES = 2**23  # doubles in each y-lattice array of wigner_grid (64 MiB)
QUBIT_COMPONENTS = {"qubit-up": 0, "qubit-down": 1}  # conditioning -> index into (psi_up, psi_dn)


@dataclass(frozen=True)
class ParityBlock:
    """One symmetry block of the Hamiltonian, in tridiagonal form.

    coupling is the off-diagonal of dH/dg (whose diagonal vanishes), so
    offdiag = g * coupling.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    coupling: np.ndarray


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted eigenvalues with parity labels and per-level convergence data."""

    energies: np.ndarray
    parities: np.ndarray
    indices: np.ndarray
    converged: np.ndarray
    convergence_estimate: np.ndarray
    n_max_used: int


@dataclass(frozen=True)
class WignerGrid:
    """W(x, p) on a uniform grid; x = a + a', p = i(a' - a), integral 1."""

    x_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray
    normalization: float


def _fock_offset(q: float) -> int:
    """f_0 of the Bargmann index q (SectorSpec rejects any other q): 0 for 1/4, 1 for 3/4."""
    return 0 if SectorSpec(q).q == 0.25 else 1


def _signs(parity: int, n_max: int) -> np.ndarray:
    """s_n = -parity (-1)^n for n < n_max, as exact +-1.0."""
    s = np.full(n_max, -float(parity))
    s[1::2] = parity
    return s


def build_parity_block(
    params: ModelParams, parity: int, n_max: int, q: float = 0.25
) -> ParityBlock:
    """Tridiagonal Hamiltonian block for one (q, parity) sector, built in place."""
    check_parity("parity", parity)
    check_count("n_max", n_max, 2)
    off = _fock_offset(q)
    diag = np.arange(off, off + 2 * n_max, 2, dtype=float)  # f_n until the loop
    coupling, offdiag = diag[:-1] + 1.0, diag[:-1] + 2.0
    coupling *= offdiag
    np.sqrt(coupling, out=coupling)  # root
    # g * root * mix / 2 rounds differently from g * coupling; keep this order
    np.multiply(params.g, coupling, out=offdiag)
    for first, s in ((0, -float(parity)), (1, float(parity))):  # s_n on even and odd n
        diag[first::2] -= 0.5 * params.delta * s
        mix = (1 + params.r) - (1 - params.r) * s
        coupling[first::2] *= mix / 2.0  # (root * mix) / 2 bit for bit: never subnormal
        offdiag[first::2] *= mix
    offdiag /= 2.0
    return ParityBlock(diag=diag, offdiag=offdiag, coupling=coupling)


def tridiag_apply(diag: np.ndarray, offdiag: np.ndarray, v: np.ndarray,
                  out: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """Symmetric tridiagonal matrix (diag, offdiag) times v, into out; tmp: n - 1 scratch."""
    out = np.multiply(diag, v, out=out)
    out[:-1] += np.multiply(offdiag, v[1:], out=tmp)
    out[1:] += np.multiply(offdiag, v[:-1], out=tmp)
    return out


def converge(solve, n_max: int, n_max_ceiling: int, held):
    """Truncation doubling: solve(n_max, None), solve(2 n_max, ...), ... until held(new, old).

    Each rung after the first gets the previous rung's result as its
    second argument (None on the first), so that it can start from it.  held
    is asked after every rung, with old None on the first, where a gate
    that compares two rungs is false.  Stops early when the next rung would
    pass n_max_ceiling, and never solves above it: a start above it raises
    ValueError before any solve.  Returns (new, old, n_max, held): the last
    two rungs' results (old None after one rung), the truncation of new and
    the gate's verdict.  The caller flags or raises an unheld result.
    """
    if n_max > n_max_ceiling:
        raise ValueError(f"first rung n_max={n_max} is above the ladder's ceiling {n_max_ceiling}")
    new, old = solve(n_max, None), None
    while not (verdict := held(new, old)) and 2 * n_max <= n_max_ceiling:
        n_max *= 2
        new, old = solve(n_max, new), new
    return new, old, n_max, verdict


def _solve_residual(v: np.ndarray, norm: float, x: np.ndarray,
                    tmp: np.ndarray | None = None) -> tuple[float, float]:
    """theta - sigma and r of v = y/norm, y solving (T - sigma) y = x, x unit; overwrites x, tmp.

    T v = sigma v + x/norm: theta = v.Tv = sigma + v.x/norm, r = |x - (v.x) v|/norm."""
    c = float(v @ x)
    x -= np.multiply(v, c, out=tmp)
    return c / norm, float(np.linalg.norm(x)) / norm


def _ground_pair(diag: np.ndarray, off: np.ndarray, vector: bool = True,
                 first_shift: float | None = None) -> tuple[float, np.ndarray | None]:
    """Lowest eigenpair (E_0, unit v0) of the symmetric tridiagonal matrix T = (diag, off).

    Up to _BISECTION_ROWS rows this is LAPACK bisection and inverse
    iteration (eigh_tridiagonal, stebz then stein).  A bigger T runs
    shifted inverse iteration, with every shift certified below E_0: dpttrf
    factors T - sigma as L D L^T with D > 0 (info 0) only when T - sigma is
    positive definite.  A first_shift (lowest_level passes the continuum
    edge at g = g_c) is tried first: if dpttrf certifies it, it is the
    first shift, and the start is flat, (-1)^n / sqrt(n), as a level just
    above it spreads over the whole block.  Otherwise T has a level below
    it, dpttrf stops at the first non-positive pivot (33 to 171 rows in
    on criterion 06's blocks), and the leading block's lowest pair
    (E_top, head) bounds E_0 from above (Cauchy interlacing), so the first
    shift is E_top - delta, delta = 1e-3 max(1, |E_top|) growing 4x until
    certified.  With off >= 0 the ground state alternates in sign, so the
    start is (-1)^n |head_n| continued by (-1)^n |head_last|, no entry
    below eps (off may vanish: r = 0, g = 0).  Each solve gives an iterate
    v with theta and r (_solve_residual); some eigenvalue lies in
    [theta - r, theta + r] (Weinstein), and whenever dpttrf certifies
    theta - r < E_0 the shift rises to it.  Once r <= tol =
    8 eps max(|diag|, 2|off|), theta and r are read again from T v, free of
    the solve's rounding; if still r <= tol, theta is returned once
    theta - r - tol is certified: then E_0 <= theta < E_0 + r + tol, tol
    covering the factorization's rounding.  One more solve with the held
    factors gives v0, as the stopping iterate errs by up to r / gap
    (vector=False skips it, returning the same E_0 and v0 None).  If the
    certificate fails, or _INVERSE_ITERATIONS passes without it, the pair
    is bisection's.  About 11 LAPACK calls at 2^15 and 2^16 rows, 9 from
    the edge.

    Above _BISECTION_ROWS the n-sized work (held and trial factors, which
    LAPACK overwrites, iterate and solve; the trial d doubles as temporary
    between factorizations) is one six-row block a call: glibc keeps a freed
    block of this size resident, so a later call faults nothing (measured).
    """

    def bisection() -> tuple[float, np.ndarray]:
        w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
        return float(w[0]), v[:, 0]

    if len(diag) <= _BISECTION_ROWS:
        return bisection()

    work = np.empty((6, len(diag)))
    held, trial = (work[0], work[1, 1:]), (work[2], work[3, 1:])
    x, y = work[4], work[5]

    def certified_below(sigma: float) -> bool:  # factors T - sigma into the trial slot
        d, e = trial
        np.subtract(diag, sigma, out=d)
        e[:] = off
        return dpttrf(d, e, overwrite_d=1, overwrite_e=1)[2] == 0

    eps = np.finfo(float).eps
    if first_shift is not None and certified_below(first_shift):
        sigma, held, trial = first_shift, trial, held
        x.fill(1.0)  # flat weights: a level just above first_shift spreads over the block
    else:
        w, head = eigh_tridiagonal(diag[:_BISECTION_ROWS], off[:_BISECTION_ROWS - 1],
                                   select="i", select_range=(0, 0))
        top = float(w[0])
        delta = 1e-3 * max(1.0, abs(top))
        for _ in range(_INVERSE_ITERATIONS):
            sigma = top - delta
            if certified_below(sigma):
                held, trial = trial, held
                break
            delta *= 4.0
        else:
            return bisection()
        x.fill(max(abs(float(head[-1, 0])), eps))
        x[:_BISECTION_ROWS] = np.maximum(np.abs(head[:, 0]), eps)
    tol = 8.0 * eps * float(max(diag.max(), -diag.min(), 2.0 * off.max(), -2.0 * off.min()))
    x[1::2] *= -1.0  # the ground state's signs when off >= 0
    x /= np.linalg.norm(x)
    for _ in range(_INVERSE_ITERATIONS):
        y[:] = x
        dpttrs(*held, y, overwrite_b=1)
        y /= (norm := float(np.linalg.norm(y)))
        shift, r = _solve_residual(y, norm, x, tmp := trial[0])
        theta, x, y = sigma + shift, y, x
        if r <= tol:  # the solve's residual; the certificate reads T's
            tx = tridiag_apply(diag, off, x, out=y, tmp=tmp[1:])
            theta = float(x @ tx)
            r = float(np.linalg.norm(np.subtract(tx, np.multiply(theta, x, out=tmp), out=tmp)))
            if r <= tol:
                if not certified_below(theta - r - tol):
                    return bisection()
                if not vector:
                    return theta, None
                y[:] = x
                dpttrs(*held, y, overwrite_b=1)
                return theta, y / np.linalg.norm(y)
        if theta - r > sigma and certified_below(theta - r):
            sigma, held, trial = theta - r, trial, held
    return bisection()


def _warm_pairs(diag: np.ndarray, off: np.ndarray, levels: np.ndarray, vectors: np.ndarray,
                vector_solve: bool = True) -> tuple[np.ndarray, np.ndarray] | None:
    """Lowest k eigenpairs of T = (diag, off), started from those of a leading block of T.

    levels and vectors (as columns) are the leading block's lowest k
    eigenpairs.  Level j runs Rayleigh-quotient iteration: dgtsv solves
    (T - sigma) y = x from the zero-padded vector j, with sigma first the
    block's level j and then each iterate's Rayleigh quotient theta, and
    the vectors of levels 0..j-1 projected out of every y.  It stops at
    r = |T x - theta x| <= tol = 8 eps max(|diag|, 2|off|), the rule of
    _ground_pair; level 0, projecting nothing, reads theta and r off each
    solve as _ground_pair does, and T once that r passes.  One more solve
    at theta gives the vector, as the iterate errs by up to r / gap
    (vector_solve=False keeps the iterate, to start a next rung from).
    Some eigenvalue lies in [theta - r, theta + r] (Weinstein), so a
    Sturm count of exactly j eigenvalues below theta - r - tol certifies
    lambda_j in [theta - r - tol, theta + r]; tol also covers the count's
    rounding.  For j = 0 the count is dpttrf's info 0, else dstebz over
    (below the Gershgorin bound, theta - r - tol] with abstol the
    interval's width, so that it counts and bisects nothing.  The leading
    block's level j bounds lambda_j from above (Cauchy interlacing), so a
    start whose level lies below theta_j - r_j - tol is not a leading
    block's pair and fails too.  At r = 0 the block splits into 2 x 2
    blocks, so a padded start or a first iterate can be exact and a solve
    at its level singular: a singular first solve keeps the start, whose
    own r may already be <= tol, and a singular vector solve keeps the
    certified iterate.  Returns None when any other solve fails, a
    certificate fails, or _INVERSE_ITERATIONS passes for a level.
    """
    n, k = len(diag), len(levels)
    scale = max(float(np.abs(diag).max()), 2.0 * float(np.abs(off).max()))
    tol = 8.0 * np.finfo(float).eps * scale
    floor = float(diag.min()) - scale - 1.0  # below Gershgorin's min(diag) - 2 max|off|
    found = np.zeros((n, k))
    thetas = np.empty(k)

    def inverse_step(sigma: float, x: np.ndarray, j: int) -> tuple[np.ndarray, float] | None:
        *_, y, info = dgtsv(off, diag - sigma, off, x[:, None])
        y = y[:, 0] - found[:, :j] @ (found[:, :j].T @ y[:, 0]) if j else y[:, 0]
        norm = float(np.linalg.norm(y))
        return (y / norm, norm) if info == 0 and 0.0 < norm < math.inf else None

    def count_below(top: float) -> int:
        if top <= floor:
            return 0
        return int(dstebz(diag, off, 1, floor, top, 0, 0, top - floor, b"B")[0])

    for j in range(k):
        x = np.zeros(n)
        x[:len(vectors)] = vectors[:, j]
        theta = float(levels[j])  # each step's shift is the Rayleigh quotient before it
        for step in range(_INVERSE_ITERATIONS):
            if (solved := inverse_step(theta, x, j)) is None and step > 0:
                return None
            if solved is not None:  # a singular first solve keeps the start: it may be exact
                shift, r = _solve_residual(*solved, x) if j == 0 else (0.0, 0.0)
                theta, x = theta + shift, solved[0]
                if r > tol:
                    continue  # level 0 reads T once the solve's r passes
            tx = tridiag_apply(diag, off, x)
            theta = float(x @ tx)
            r = float(np.linalg.norm(tx - theta * x))
            if r <= tol:
                break
        else:
            return None
        top = theta - r - tol
        certified = (dpttrf(diag - top, off)[2] == 0 if j == 0 else count_below(top) == j)
        if not (certified and top <= levels[j]):
            return None
        if vector_solve and (solved := inverse_step(theta, x, j)) is not None:
            x = solved[0]  # singular at an exact theta: keep x
        thetas[j], found[:, j] = theta, x
    return thetas, found


def _lowest_pairs(diag: np.ndarray, off: np.ndarray, k: int,
                  previous: tuple[np.ndarray, np.ndarray] | None,
                  vector_solve: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs (levels, vectors as columns) of T = (diag, off) on one ladder rung.

    previous is the rung below's pairs, or None on a first rung.  A first
    rung asking for one pair runs _ground_pair.  Above _WARM_ROWS a rung
    with a previous one runs _warm_pairs (vector_solve passed on); any
    other rung, and a warm one whose certificate fails, is LAPACK
    bisection and inverse iteration (stebz then stein).
    """
    if previous is None and k == 1:
        e0, v0 = _ground_pair(diag, off)
        return np.array([e0]), v0[:, None]
    if previous is not None and len(diag) > _WARM_ROWS:
        if (warm := _warm_pairs(diag, off, *previous, vector_solve)) is not None:
            return warm
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))


def lowest_level(params: ModelParams, parity: int, n_max: int) -> float:
    """Lowest eigenvalue of one q = 1/4 block at fixed truncation (no doubling).

    At g = g_c the levels above the continuum edge E_c = -1/2 crowd
    together, so a block with no bound level has its lowest level, a box
    state, just above E_c: _ground_pair tries E_c as its first shift
    there, and skips the leading-block bisection when it certifies.
    """
    block = build_parity_block(params, parity, n_max)
    edge = CONTINUUM_EDGE if geometry(params).at_collapse else None
    return _ground_pair(block.diag, block.offdiag, vector=False, first_shift=edge)[0]


def collapse_point_gap(
    params: ModelParams, n_max: int, n_max_ceiling: int
) -> tuple[float, int, bool]:
    """Parity gap |E_+ - E_-| of the q = 1/4 ground levels, with truncation doubling.

    The gap at n_max is compared against n_max/2; n_max doubles until the
    move is within 2% of the gap, or the ceiling is reached.  At g = g_c
    convergence in n_max is algebraic (each doubling roughly halves the
    move), so no fixed truncation suits every Delta.  Returns the gap, the
    n_max it was taken at, and whether the gate held.
    """
    check_count("n_max", n_max, 4)  # the first rung solves n_max/2 >= 2

    def gap_at(n: int, _previous: float | None) -> float:
        return abs(lowest_level(params, +1, n) - lowest_level(params, -1, n))

    gap, _, n_max, held = converge(
        gap_at, n_max // 2, max(n_max, n_max_ceiling),
        lambda gap, half: half is not None and abs(gap - half) <= 0.02 * gap)
    return gap, n_max, held


def ed_spectrum(
    params: ModelParams,
    sector: SectorSpec = SectorSpec(),
    n_max: int = 64,
    tol: float = 1e-10,
    k: int = 8,
    n_max_ceiling: int = N_MAX_CEILING,
) -> SpectrumResult:
    """Lowest k levels of one symmetry block, with truncation doubling.

    n_max doubles until every level moves by less than tol, or the
    ceiling is reached; unconverged levels are flagged, never raised.
    Each rung solves its lowest k eigenpairs with _lowest_pairs, so a
    rung above _WARM_ROWS starts from the rung below's pairs.  Its
    vectors only start the next rung, so a warm rung skips the final
    vector solve and keeps its certified iterates.  At g = g_c only
    levels below the continuum threshold -1/2 are physically meaningful.
    """
    check_count("n_max", n_max, 2)
    check_count("k", k)
    check_positive(tol=tol)

    def solve(n: int, previous: tuple | None) -> tuple[np.ndarray, np.ndarray]:
        block = build_parity_block(params, sector.parity, n, sector.q)
        return _lowest_pairs(block.diag, block.offdiag, k, previous, False)

    (w, _), old, n_used, _ = converge(
        solve, max(n_max, 2 * k, 4), n_max_ceiling,
        lambda new, old: old is not None and np.abs(new[0] - old[0]).max() < tol
    )
    estimate = np.full(k, np.inf) if old is None else np.abs(w - old[0])
    return SpectrumResult(
        energies=w,
        parities=np.full(k, sector.parity, dtype=int),
        indices=np.arange(k),
        converged=estimate < tol,
        convergence_estimate=estimate,
        n_max_used=n_used,
    )


def full_spectrum(
    params: ModelParams, n_max: int = 64, tol: float = 1e-10, k: int = 8
) -> SpectrumResult:
    """Both parity blocks of the even (q = 1/4) subspace, merged and sorted."""
    check_positive(tol=tol)
    parts = [ed_spectrum(params, SectorSpec(0.25, p), n_max, tol, k) for p in (+1, -1)]
    fields = ("energies", "parities", "indices", "converged", "convergence_estimate")
    merged = {name: np.concatenate([getattr(s, name) for s in parts]) for name in fields}
    order = np.argsort(merged["energies"], kind="stable")
    return SpectrumResult(
        **{name: values[order] for name, values in merged.items()},
        n_max_used=max(s.n_max_used for s in parts),
    )


def _squeezed_frame_eigs(m: np.ndarray, parity: int, beta: float, k: int) -> np.ndarray:
    """Lowest k eigenvalues of diag[(2m+1/2) beta - 1/2] + parity M, from M's lower triangle.

    m (C-contiguous) is scaled and shifted in place and then overwritten
    by the solve: its transpose is F-contiguous, and its upper triangle is
    m's lower one, so eigh reduces it without a copy.
    """
    m *= parity
    idx = np.arange(len(m))
    m[idx, idx] += _bare_level(idx, beta)
    return eigh(m.T, lower=False, overwrite_a=True, eigvals_only=True, subset_by_index=[0, k - 1])


def squeezed_frame_spectrum(
    params: ModelParams, parity: int, n_max: int, k: int = 8
) -> SpectrumResult:
    """Lowest k levels from the squeezed-frame coupled-manifold matrix.

    M is symmetric up to the rounding of its squeeze-matrix products
    (1e-11 to 1e-10 relative at n_max = 480), so the levels come from a
    symmetric solve of its lower triangle; an asymmetry max|M - M^T| above
    1e-9 max|M| flags every level unconverged instead of raising; both
    maxima are taken in row blocks.  Convergence estimates come from a
    half-size solve on a copy of the matrix's leading block, made before
    the full solve overwrites M; a level has converged when its estimate
    is below 1e-8.  So a call holds M (in S's buffer, see aa_matrix), that
    copy and row-block temporaries, and keeps nothing after it returns.
    Near collapse the basis absorbs the squeezing, so this frame reaches
    moderate accuracy (2e-2) at much smaller n_max than bare Fock, but not
    high accuracy: at beta = 0.1 it is still 1.9e-2 off at 240 rows.
    Parity, k and n_max are rejected by name before M is built, and
    g = g_c by aa_matrix before it builds S.
    """
    check_parity("parity", parity)
    check_count("k", k)
    check_count("n_max", n_max)
    if n_max < max(2 * k, 4):
        raise ValueError(f"n_max={n_max} too small for k={k} levels")
    m = aa_matrix(params, n_max)
    beta = geometry(params).beta
    step = max(1, _BLOCK_ENTRIES // n_max)
    asymmetry = largest = 0.0
    for r0 in range(0, n_max, step):
        rows = m[r0 : r0 + step]
        asymmetry = max(asymmetry, np.abs(rows - m[:, r0 : r0 + step].T).max())
        largest = max(largest, np.abs(rows).max())
    symmetric = asymmetry <= 1e-9 * largest
    half = n_max // 2
    estimate_levels = _squeezed_frame_eigs(m[:half, :half].copy(), parity, beta, k)
    lowest = _squeezed_frame_eigs(m, parity, beta, k)
    estimate = np.abs(lowest - estimate_levels)
    return SpectrumResult(
        energies=lowest,
        parities=np.full(k, parity, dtype=int),
        indices=np.arange(k),
        converged=symmetric & (estimate < 1e-8),
        convergence_estimate=estimate,
        n_max_used=n_max,
    )


def _ground_rung(params: ModelParams, n: int,
                 previous: tuple[np.ndarray, np.ndarray] | None) -> tuple[np.ndarray, np.ndarray]:
    """One rung of a ground ladder: the n-row (q=1/4, parity=-1) block's ground pair.

    previous is the rung below's pair, or None on a first rung (_lowest_pairs).
    """
    block = build_parity_block(params, -1, n)
    return _lowest_pairs(block.diag, block.offdiag, 1, previous)


def ground_state_block(
    params: ModelParams,
    n_max: int = 64,
    tol: float = 1e-10,
    n_max_ceiling: int = N_MAX_CEILING,
) -> tuple[float, np.ndarray, float, int]:
    """Ground level of the (q=1/4, parity=-1) block: (energy, coeffs, estimate, n_max).

    Truncation doubles until the energy is stable to tol or the next
    rung would pass the ceiling; the estimate is inf when only one rung
    fits.  Each rung's pair comes from _lowest_pairs: _ground_pair on the
    first, a start from the rung below's pair on each later one.  The
    coefficient vector's overall sign is fixed so its largest entry is
    positive.
    """
    check_count("n_max", n_max, 2)
    check_positive(tol=tol)
    (levels, vectors), old, n_used, _ = converge(
        lambda n, previous: _ground_rung(params, n, previous), max(n_max, 8), n_max_ceiling,
        lambda new, old: old is not None and abs(new[0][0] - old[0][0]) < tol,
    )
    energy, coeffs = float(levels[0]), vectors[:, 0]
    estimate = math.inf if old is None else abs(energy - old[0][0])
    if coeffs[np.argmax(np.abs(coeffs))] < 0:
        coeffs = -coeffs
    return energy, coeffs, estimate, n_used


def block_to_spinfock(coeffs: np.ndarray, parity: int, q: float = 0.25) -> tuple[np.ndarray, np.ndarray]:
    """Map block coefficients to the two spin components over the Fock index."""
    off = _fock_offset(q)
    n_max = len(coeffs)
    size = 2 * (n_max - 1) + off + 1
    psi_up = np.zeros(size)
    psi_dn = np.zeros(size)
    f = 2 * np.arange(n_max) + off
    psi_up[f] = coeffs / math.sqrt(2.0)
    psi_dn[f] = _signs(parity, n_max) * coeffs / math.sqrt(2.0)
    return psi_up, psi_dn


def _a2_apply(psi: np.ndarray) -> np.ndarray:
    out = np.zeros_like(psi)
    f = np.arange(len(psi) - 2, dtype=float)
    out[:-2] = np.sqrt((f + 1.0) * (f + 2.0)) * psi[2:]
    return out


def _ad2_apply(psi: np.ndarray) -> np.ndarray:
    out = np.zeros_like(psi)
    f = np.arange(len(psi) - 2, dtype=float)
    out[2:] = np.sqrt((f + 1.0) * (f + 2.0)) * psi[:-2]
    return out


def dg_hamiltonian_apply(
    psi_up: np.ndarray, psi_dn: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Apply dH/dg = (1+r)/2 sigma_z (a^2+a'^2) + (1-r)/2 i sigma_y (a^2-a'^2)."""
    a2_up, ad2_up = _a2_apply(psi_up), _ad2_apply(psi_up)
    a2_dn, ad2_dn = _a2_apply(psi_dn), _ad2_apply(psi_dn)
    out_up = 0.5 * (1 + r) * (a2_up + ad2_up) + 0.5 * (1 - r) * (a2_dn - ad2_dn)
    out_dn = -0.5 * (1 + r) * (a2_dn + ad2_dn) - 0.5 * (1 - r) * (a2_up - ad2_up)
    return out_up, out_dn


def _converged_ground(params: ModelParams, n_max: int, tol: float) -> tuple[np.ndarray, int]:
    """ground_state_block's (coeffs, n_max); raises unless the estimate is below max(tol, 1e-8)."""
    _, coeffs, estimate, n_used = ground_state_block(params, n_max, tol)
    if estimate >= max(tol, 1e-8):
        raise ConvergenceError(
            f"ground state unconverged: estimate {estimate:.2e} at ceiling truncation"
        )
    return coeffs, n_used


def _ground_spinfock(params: ModelParams, n_max: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Spin (x) Fock components of the ground state; raises unless it converged."""
    return block_to_spinfock(_converged_ground(params, n_max, tol)[0], parity=-1)


def ed_ground_observables(
    params: ModelParams, n_max: int = 64, tol: float = 1e-10
) -> GroundStateObservables:
    """Ground-state photon number, polarization and quadrature widths.

    Computed from the (q=1/4, parity=-1) ground eigenvector mapped back
    to spin (x) Fock; <x> = <p> = 0 holds identically in the even
    subspace, and <a^2> vanishes by parity (retained in the quadrature
    formulas as an honesty check rather than assumed).
    """
    psi_up, psi_dn = _ground_spinfock(params, n_max, tol)
    f = np.arange(len(psi_up), dtype=float)
    photon = float(f @ (psi_up**2 + psi_dn**2))
    a2 = float(psi_up @ _a2_apply(psi_up) + psi_dn @ _a2_apply(psi_dn))
    sigma_x = float(2.0 * psi_up @ psi_dn)
    dx = math.sqrt(1.0 + 2.0 * photon + 2.0 * a2)
    dp = math.sqrt(1.0 + 2.0 * photon - 2.0 * a2)
    return GroundStateObservables(photon=photon, sigma_x=sigma_x, dx=dx, dp=dp)


def _ground_resolvent(
    block: ParityBlock, v0: np.ndarray, e0: float, rhs: np.ndarray
) -> np.ndarray:
    """x = (H - E_0)^+ rhs on one block, for rhs orthogonal to its ground state v0.

    H - E_0 is singular along v0 (exactly so at g = 0, where it is diagonal
    with a zero), but every solution of (H - E_0) y = rhs is x + c v0.  The
    one with y_k = 0 at k = argmax|v0| solves the block with row and column
    k deleted: two tridiagonal pieces whose determinants multiply to
    v0[k]^2 prod_(j>0) (E_j - E_0), so they are nonsingular, and best
    conditioned at the largest v0[k].  Projecting v0 out of y gives x.

    Residual gate: x solves exactly (H - E_0) x = rhs + res, so it errs by
    (H - E_0)^+ res, of norm at most |res| / gap with gap = E_1 - E_0 in the
    block, and a quadratic form such as F_Q = 4 x.x moves by at most
    2 |res| / (gap |x|) = 2 (|res| / |rhs|) (|rhs| / (gap |x|)) relative.
    The second factor measures 1.00 to 1.01 (it is 1 when rhs lies along
    the first excited state) for both the F_Q and the chi_3 solve, at
    criterion 04's points and at 1 - g/g_c = 1e-6.  So the gate
    |res| <= 1e-7 |rhs| holds F_Q to about 2e-7, a fifth of the 1e-6 its
    doubling gate asks for; above it, ConvergenceError.  |res| / |rhs|
    itself measures 2e-13 to 1.2e-10 at those points (n_max 2048 to 8192)
    and 4.1e-9 at n_max = 16384, 1 - g/g_c = 1e-6.
    """
    n, k = len(v0), int(np.argmax(np.abs(v0)))
    shifted = block.diag - e0
    # row and column k become the identity, splitting off the two pieces; y_k = 0
    d, e, b = shifted.copy(), block.offdiag.copy(), rhs.copy()
    d[k], b[k] = 1.0, 0.0
    e[max(k - 1, 0):k + 1] = 0.0
    *_, y, info = dgtsv(e, d, e, b)
    if info != 0:
        raise RuntimeError(f"tridiagonal solve failed (LAPACK info={info})")
    x = y - (v0 @ y) * v0
    res = float(np.linalg.norm(tridiag_apply(shifted, block.offdiag, x) - rhs))
    scale = float(np.linalg.norm(rhs))
    if res > _RESOLVENT_RES_TOL * scale:
        raise ConvergenceError(
            f"resolvent residual {res:.3e} above {_RESOLVENT_RES_TOL:.0e} x |rhs| = "
            f"{_RESOLVENT_RES_TOL * scale:.3e} at n_max={n}"
        )
    return x


def _response_rung(params: ModelParams, n: int, previous: tuple[np.ndarray, np.ndarray] | None,
                   power: int) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """(sum, ground pair) of one response-sum rung on the n-row (q=1/4, parity=-1) block.

    The sum is sum_(j!=0) |<j| dH/dg |0>|^2 / (E_j - E_0)^power, and
    x = (H - E_0)^+ (1 - P_0) dH/dg |0> is the ground state's first-order
    response to the coupling: power 2 is x.x (F_Q / 4), power 3 is
    x.(H - E_0)^+ x (chi_3), power - 1 _ground_resolvent solves.  The
    ground pair is _ground_rung's, from previous, the rung below's pair.
    """
    block = build_parity_block(params, -1, n)
    pairs = _lowest_pairs(block.diag, block.offdiag, 1, previous)
    e0, v0 = float(pairs[0][0]), pairs[1][:, 0]
    b = tridiag_apply(np.zeros(n), block.coupling, v0)
    b -= (v0 @ b) * v0
    x = _ground_resolvent(block, v0, e0, b)
    return float(x @ (x if power == 2 else _ground_resolvent(block, v0, e0, x))), pairs


def _response_held(total: float, below: float) -> bool:
    """The response-sum doubling gate: the sum moved by at most 1e-6 relative."""
    return abs(total - below) <= _RESPONSE_REL_TOL * total


def qfi_spectral(
    params: ModelParams,
    n_max: int = 256,
    k_states: int = 64,
    n_max_ceiling: int = N_MAX_CEILING,
) -> float:
    """Coupling quantum Fisher information from the ground-state resolvent.

    F_Q = 4 sum_(j!=0) |<j| dH/dg |0>|^2 / (E_j - E_0)^2, the power-2
    _response_rung doubled from n_max until _response_held, else
    ConvergenceError at the ceiling (see _ground_resolvent for its residual
    gate).  dH/dg |0> at the final truncation must project to zero (1e-12
    relative) on the whole opposite-parity block.  k_states is unused; it
    is still checked, so that callers that pass it keep working.
    """
    check_count("k_states", k_states)
    new, _, n_cur, held = converge(
        lambda n, below: _response_rung(params, n, None if below is None else below[1], 2),
        n_max, n_max_ceiling, lambda new, old: old is not None and _response_held(new[0], old[0]))
    if not held:
        raise ConvergenceError(
            f"F_Q not stable to {_RESPONSE_REL_TOL:.0e} at truncation ceiling {n_cur}")
    _assert_cross_parity_selection_rule(params, new[1][1][:, 0])
    return 4.0 * new[0]


def _opposite_parity_part(dup: np.ndarray, ddn: np.ndarray) -> np.ndarray:
    """c_n = <n; +|psi> = (dup[2n] + s_n ddn[2n]) / sqrt 2, s = _signs(+1), over all n."""
    return (dup[::2] + _signs(+1, len(dup[::2])) * ddn[::2]) / math.sqrt(2.0)


def _assert_cross_parity_selection_rule(params: ModelParams, ground: np.ndarray) -> None:
    """Symmetry forbids |c| > 0 for c the parity +1 part of dH/dg |ground>; gate 1e-12 relative."""
    dup, ddn = dg_hamiltonian_apply(*block_to_spinfock(ground, parity=-1), params.r)
    scale = math.sqrt(float(dup @ dup + ddn @ ddn))
    leak = float(np.linalg.norm(_opposite_parity_part(dup, ddn)))
    if leak > 1e-12 * max(scale, 1.0):
        raise RuntimeError(f"cross-parity element {leak:.3e} above 1e-12 x {scale:.3e}: "
                           "parity bookkeeping violated")


def qfi_fidelity_oracle(params: ModelParams, n_max: int = 256, eps: float = 1e-5) -> float:
    """QFI from the fidelity drop between ground states at g and g + eps.

    F_Q ~ 8 (1 - |<psi(g)|psi(g+eps)>|) / eps^2, apart from the spectral sum's
    resolvent but on the same ground ladders (_lowest_pairs).  Both ground states
    pass the gate of the other ground-state consumers, else ConvergenceError.
    """
    if params.g + eps >= params.g_c:
        raise ValueError("g + eps crosses the collapse point")
    c1, used = _converged_ground(params, n_max, 1e-10)
    shifted = ModelParams(delta=params.delta, g=params.g + eps, r=params.r)
    c2, _ = _converged_ground(shifted, used, 1e-10)
    n = min(len(c1), len(c2))
    overlap = abs(float(c1[:n] @ c2[:n]))
    return 8.0 * (1.0 - overlap) / eps**2


def squeezed_vacuum_coeffs(theta: float, n_states: int) -> np.ndarray:
    """Even-sector coefficients of S(theta)|0>, S(s) = exp[(s/2)(a'^2 - a^2)].

    c_m = tanh(theta)^m sqrt((2m)!) / (2^m m! sqrt(cosh theta)), in log space.
    """
    check_finite(theta=theta)
    m, t = np.arange(n_states, dtype=float), math.tanh(theta)
    log_cosh = float(np.logaddexp(theta, -theta)) - math.log(2.0)
    logs = xlogy(m, abs(t)) + 0.5 * gammaln(2.0 * m + 1.0) - gammaln(m + 1.0) - m * math.log(2.0)
    return np.sign(t) ** m * np.exp(logs - 0.5 * log_cosh)


def conditional_photon_state(
    params: ModelParams, conditioning: str, n_max: int = 64, tol: float = 1e-10
) -> np.ndarray:
    """Normalized photon state after projecting the qubit, over the Fock index.

    An unknown conditioning is rejected before the ground-state solve.
    """
    if conditioning not in QUBIT_COMPONENTS:
        raise ValueError(f"conditioning must be 'qubit-up' or 'qubit-down', got {conditioning!r}")
    comp = _ground_spinfock(params, n_max, tol)[QUBIT_COMPONENTS[conditioning]]
    return comp / np.linalg.norm(comp)


def _hermite_sum(coeffs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_n coeffs[i, n] psi_n(q) for each row i, streaming the normalized Hermite functions psi_n.

    exp(-q^2/2) underflows at |q| ~ 38, where psi_n of high n does not, so
    the recurrence carries the Gaussian as a per-point log scale and
    renormalizes wherever it passes _RESCALE, every row's sum with it: one
    recurrence, and each row bitwise what a recurrence of its own gives.
    """
    log_scale = -0.5 * q * q - 0.25 * math.log(math.pi)
    prev, cur = np.zeros_like(q), np.ones_like(q)
    totals = coeffs[:, :1] * cur
    for n in range(1, coeffs.shape[1]):
        prev, cur = cur, math.sqrt(2.0 / n) * q * cur - math.sqrt((n - 1) / n) * prev
        for i in np.flatnonzero(coeffs[:, n]):
            totals[i] += coeffs[i, n] * cur
        big = np.nonzero(np.abs(cur) > _RESCALE)[0]
        if big.size:
            for arr in (prev, cur, totals.T):  # totals.T[big]: every row at those points
                arr[big] /= _RESCALE
            log_scale[big] += _LOG_RESCALE
    return totals * np.exp(log_scale)


def check_wigner_lattice(
    half_width: float | None, points: int, names: tuple[str, str] = ("half_width", "points")
) -> None:
    """Reject a grid whose y-lattice arrays would pass _WIGNER_MAX_ENTRIES, naming its sizes.

    wigner_grid's two largest arrays hold points (2 refine (points - 1) + 1)
    doubles each, refine = ceil(2 half_width^2 / (pi (points - 1))).  The
    count is taken in floats, so an overflowing half_width is rejected too;
    None (width not known yet) counts as refine = 1, the least there is.
    """
    refine = 1.0
    if half_width is not None:
        refine = max(refine, 2.0 * half_width * half_width / (math.pi * (points - 1)))
    entries = points * (2.0 * refine * (points - 1) + 1.0)
    if entries > _WIGNER_MAX_ENTRIES:
        where = "" if half_width is None else f" with {names[0]}={half_width}"
        raise ValueError(f"{names[1]}={points}{where} needs a y-lattice of {entries:.3g} "
                         f"entries per array, above {_WIGNER_MAX_ENTRIES}")


def _wigner_from_components(
    components: list[np.ndarray], x_axis: np.ndarray, p_axis: np.ndarray
) -> np.ndarray:
    """W(x, p) = sum over components of (1/2pi) int psi(q+y) psi(q-y) cos(2 k y) dy.

    q = x/sqrt 2, k = p/sqrt 2; each component is a real Fock vector and x_axis
    is uniform.  See wigner_grid for the lattice.
    """
    dx = float(x_axis[1] - x_axis[0])
    refine = max(1, math.ceil(dx * float(np.abs(p_axis).max()) / math.pi))
    spacing = 2 * refine  # lattice steps between neighbouring q_j
    span = spacing * (len(x_axis) - 1)  # lattice steps across the box; y_k = k h, k <= span
    h = dx / (math.sqrt(2.0) * spacing)
    lattice = (x_axis[0] + np.arange(-span, 2 * span + 1) * (dx / spacing)) / math.sqrt(2.0)
    products = np.zeros((len(x_axis), span + 1))
    for psi in _hermite_sum(np.array(components), lattice):
        windows = sliding_window_view(psi, span + 1)
        # q_j sits at lattice index span + spacing j: psi(q_j + y_k) is entry k of the
        # window that starts there, psi(q_j - y_k) entry span - k of the one that ends there
        products += windows[span::spacing] * windows[: span + 1 : spacing, ::-1]
    cosines = 2.0 * np.cos(np.outer(math.sqrt(2.0) * p_axis, h * np.arange(span + 1)))
    cosines[:, 0] = 1.0  # the integrand is even in y: fold it onto y >= 0
    return (h / (2.0 * math.pi)) * (cosines @ products.T)


def wigner_grid(
    params: ModelParams,
    n_max: int = 64,
    half_width: float | None = None,
    points: int = 161,
    conditioning: str = "reduced",
    tol: float = 1e-10,
) -> WignerGrid:
    """Wigner function of the ground-state photon mode.

    conditioning selects the reduced state (qubit traced out) or the
    renormalized state after projecting the qubit up/down.  The grid
    must be wide enough that |W| < 1e-6 on the boundary, else a
    ValueError reports the boundary mass; integral and second moments
    are the correctness invariants checked by the tests.

    Each component's psi(q) is evaluated once on a q-lattice of step
    h = dq / (2 refine), dq = dx/sqrt 2, refine = ceil(dx half_width / pi),
    which holds every q_j +- y_k; the y-integral is a trapezoid sum.  That
    sum is exact up to aliasing, W(q, k) + sum over m != 0 of
    W(q, k + m pi/h), and the refine rule puts every partner at least
    2 half_width/sqrt 2 outside the box.  y spans the box's full width in
    q: the integrand decays in y as the state does in q, so stopping at
    half of it leaves errors of the size of W on the boundary.  A lattice
    past 2^23 entries an array raises ValueError (check_wigner_lattice),
    before the ground-state solve when half_width is given; an unknown
    conditioning always does.
    """
    check_count("points", points, 3)  # the integral needs an interior point
    check_positive(half_width=half_width)
    check_wigner_lattice(half_width, points)
    if conditioning == "reduced":
        components = list(_ground_spinfock(params, n_max, tol))
    elif conditioning in QUBIT_COMPONENTS:
        components = [conditional_photon_state(params, conditioning, n_max, tol)]
    else:
        raise ValueError(f"unknown conditioning {conditioning!r}")

    if half_width is None:
        width = 1.0
        for comp in components:
            f = np.arange(len(comp), dtype=float)
            nrm = float(comp @ comp)
            ph = float(f @ comp**2)
            a2 = float(comp @ _a2_apply(comp))
            widest = math.sqrt(max(nrm + 2 * ph + 2 * abs(a2), 1e-12) / max(nrm, 1e-12))
            width = max(width, widest)
        half_width = 5.5 * width
        check_wigner_lattice(half_width, points)

    x_axis = np.linspace(-half_width, half_width, points)
    p_axis = np.linspace(-half_width, half_width, points)
    values = _wigner_from_components(components, x_axis, p_axis)

    edges = (values[0, :], values[-1, :], values[:, 0], values[:, -1])
    boundary = max(float(np.abs(edge).max()) for edge in edges)
    if boundary > 1e-6:
        raise ValueError(
            f"grid too narrow: boundary |W| = {boundary:.2e} > 1e-6, widen half_width"
        )
    norm = float(np.trapezoid(np.trapezoid(values, x_axis, axis=1), p_axis))
    return WignerGrid(x_axis=x_axis, p_axis=p_axis, values=values, normalization=norm)
