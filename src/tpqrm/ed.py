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
form; verify_block_projection checks it entrywise against the explicit
dense spin (x) Fock construction and is exercised across the parameter
space by the test suite.

A second, independent route diagonalizes the squeezed-frame matrix
diag[(2m+1/2) beta - 1/2] + p M_mn (couplings from aa); the two frames
cross-validate each other.  Ground-state observables, the coupling
quantum Fisher information, and Wigner grids are all computed from
bare-Fock eigenvectors mapped back to spin (x) Fock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig, eigh_tridiagonal
from scipy.special import eval_genlaguerre, gammaln

from .aa import GroundStateObservables, aa_matrix
from .errors import ConvergenceError
from .model import ModelParams, SectorSpec, check_count, geometry
from .specfun import squeeze_element

N_MAX_CEILING = 16384


@dataclass(frozen=True)
class ParityBlock:
    """One symmetry block of the Hamiltonian, in tridiagonal form.

    coupling is the off-diagonal of dH/dg (whose diagonal vanishes), so
    offdiag = g * coupling.
    """

    n_max: int
    parity: int
    q: float
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

    @property
    def levels(self) -> list[tuple[float, int, int]]:
        return [
            (float(e), int(p), int(i))
            for e, p, i in zip(self.energies, self.parities, self.indices)
        ]


@dataclass(frozen=True)
class WignerGrid:
    """W(x, p) on a uniform grid; x = a + a', p = i(a' - a), integral 1."""

    x_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray
    normalization: float


def _fock_offset(q: float) -> int:
    if q == 0.25:
        return 0
    if q == 0.75:
        return 1
    raise ValueError(f"Bargmann index q={q} must be 1/4 or 3/4")


def build_parity_block(
    params: ModelParams, parity: int, n_max: int, q: float = 0.25
) -> ParityBlock:
    """Tridiagonal Hamiltonian block for one (q, parity) sector."""
    if parity not in (+1, -1):
        raise ValueError("parity must be +1 or -1")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    off = _fock_offset(q)
    n = np.arange(n_max)
    s = -parity * (-1.0) ** n
    f = 2 * n + off
    diag = f - 0.5 * params.delta * s
    root = np.sqrt((f[:-1] + 1.0) * (f[:-1] + 2.0))
    mix = (1 + params.r) - (1 - params.r) * s[:-1]
    # g * root * mix / 2 rounds differently from g * coupling; keep this order
    offdiag = params.g * root * mix / 2.0
    return ParityBlock(n_max=n_max, parity=parity, q=q, diag=diag, offdiag=offdiag,
                       coupling=root * mix / 2.0)


def tridiag_apply(diag: np.ndarray, offdiag: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetric tridiagonal matrix (diag, offdiag) times v."""
    out = diag * v
    out[:-1] += offdiag * v[1:]
    out[1:] += offdiag * v[:-1]
    return out


def converge(solve, n_max: int, n_max_ceiling: int, held):
    """Truncation doubling: solve(n_max), solve(2 n_max), ... until held(new, old).

    Stops early when the next rung would pass n_max_ceiling, and never
    solves above it (except a start already above it).  Returns
    (new, old, n_max): the last two rungs' results, old None when only
    one rung was solved, and the truncation of new.  The caller decides
    whether an unheld result is flagged or raised.
    """
    new, old = solve(n_max), None
    while 2 * n_max <= n_max_ceiling:
        n_max *= 2
        new, old = solve(n_max), new
        if held(new, old):
            break
    return new, old, n_max


def dense_hamiltonian(params: ModelParams, n_fock: int) -> np.ndarray:
    """Full Hamiltonian on spin (x) Fock(0..n_fock-1); real because i sigma_y is real."""
    n = np.arange(n_fock)
    a = np.diag(np.sqrt(n[1:].astype(float)), 1)
    a2 = a @ a
    ad2 = a2.T
    num = np.diag(n.astype(float))
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    isy = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    eye2 = np.eye(2)
    return (
        -0.5 * params.delta * np.kron(sx, np.eye(n_fock))
        + np.kron(eye2, num)
        + 0.5 * params.g * (1 + params.r) * np.kron(sz, a2 + ad2)
        + 0.5 * params.g * (1 - params.r) * np.kron(isy, a2 - ad2)
    )


def verify_block_projection(
    params: ModelParams, parity: int, n_max: int, q: float = 0.25
) -> float:
    """Max entrywise deviation of the tridiagonal block from the dense projection.

    Builds the (|up,f_n> + s_n|down,f_n>)/sqrt(2) basis explicitly and
    projects the dense Hamiltonian onto it; the derived closed form
    must reproduce that to machine precision.
    """
    off = _fock_offset(q)
    n_fock = 2 * n_max + off + 2
    h = dense_hamiltonian(params, n_fock)
    basis = np.zeros((2 * n_fock, n_max))
    for n in range(n_max):
        s = -parity * (-1) ** n
        f = 2 * n + off
        basis[f, n] = 1.0 / math.sqrt(2.0)
        basis[n_fock + f, n] = s / math.sqrt(2.0)
    projected = basis.T @ h @ basis
    block = build_parity_block(params, parity, n_max, q)
    tri = np.diag(block.diag) + np.diag(block.offdiag, 1) + np.diag(block.offdiag, -1)
    return float(np.abs(projected - tri).max())


def _lowest_block_eigenvalues(block: ParityBlock, k: int) -> np.ndarray:
    return eigh_tridiagonal(
        block.diag, block.offdiag, eigvals_only=True, select="i", select_range=(0, k - 1)
    )


def lowest_level(params: ModelParams, parity: int, n_max: int, q: float = 0.25) -> float:
    """Lowest eigenvalue of one block at fixed truncation (no doubling)."""
    return float(_lowest_block_eigenvalues(build_parity_block(params, parity, n_max, q), 1)[0])


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

    def gap_at(n: int) -> float:
        return abs(lowest_level(params, +1, n) - lowest_level(params, -1, n))

    def held(gap: float, gap_half: float) -> bool:
        return abs(gap - gap_half) <= 0.02 * gap

    gap, gap_half, n_max = converge(gap_at, n_max // 2, max(n_max, n_max_ceiling), held)
    return gap, n_max, held(gap, gap_half)


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
    At g = g_c only levels below the continuum threshold -1/2 are
    physically meaningful.
    """
    check_count("k", k)

    def solve(n: int) -> np.ndarray:
        return _lowest_block_eigenvalues(build_parity_block(params, sector.parity, n, sector.q), k)

    w, w_half, n_used = converge(
        solve, max(n_max, 2 * k, 4), n_max_ceiling, lambda new, old: np.abs(new - old).max() < tol
    )
    estimate = np.full(k, np.inf) if w_half is None else np.abs(w - w_half)
    return SpectrumResult(
        energies=w,
        parities=np.full(k, sector.parity, dtype=int),
        indices=np.arange(k),
        converged=estimate < tol,
        convergence_estimate=estimate,
        n_max_used=n_used,
    )


def full_spectrum(
    params: ModelParams,
    q: float = 0.25,
    n_max: int = 64,
    tol: float = 1e-10,
    k: int = 8,
    n_max_ceiling: int = N_MAX_CEILING,
) -> SpectrumResult:
    """Both parity blocks of a Bargmann subspace, merged and sorted."""
    parts = [
        ed_spectrum(params, SectorSpec(q, p), n_max, tol, k, n_max_ceiling) for p in (+1, -1)
    ]
    fields = ("energies", "parities", "indices", "converged", "convergence_estimate")
    merged = {name: np.concatenate([getattr(s, name) for s in parts]) for name in fields}
    order = np.argsort(merged["energies"], kind="stable")
    return SpectrumResult(
        **{name: values[order] for name, values in merged.items()},
        n_max_used=max(s.n_max_used for s in parts),
    )


def _squeezed_frame_eigs(m: np.ndarray, parity: int, beta: float) -> np.ndarray:
    a = parity * m
    idx = np.arange(len(m))
    a[idx, idx] += (2 * idx + 0.5) * beta - 0.5
    w = eig(a, right=False)
    return w[np.argsort(w.real)]


def squeezed_frame_spectrum(
    params: ModelParams,
    parity: int,
    n_max: int,
    k: int = 8,
    tol: float = 1e-8,
) -> SpectrumResult:
    """Lowest k levels from the squeezed-frame coupled-manifold matrix.

    The matrix is treated as general (non-symmetric) per its textual
    form; residual imaginary parts above 1e-8 (1 + |E|) flag the level
    unconverged instead of raising.  Convergence estimates come from a
    half-size solve on the matrix's leading block.  Near collapse this
    frame reaches a given accuracy at much smaller n_max than bare Fock,
    because the basis already absorbs the squeezing.
    """
    geo = geometry(params)
    if geo.at_collapse:
        raise ValueError("squeezed frame undefined at g = g_c (theta diverges)")
    if n_max < max(2 * k, 4):
        raise ValueError(f"n_max={n_max} too small for k={k} levels")
    m = aa_matrix(params, n_max)
    w_full = _squeezed_frame_eigs(m, parity, geo.beta)
    w_half = _squeezed_frame_eigs(m[: n_max // 2, : n_max // 2], parity, geo.beta)
    lowest = w_full[:k]
    estimate = np.abs(lowest.real - w_half[:k].real)
    imag_ok = np.abs(lowest.imag) <= 1e-8 * (1.0 + np.abs(lowest.real))
    converged = imag_ok & (estimate < tol)
    return SpectrumResult(
        energies=lowest.real,
        parities=np.full(k, parity, dtype=int),
        indices=np.arange(k),
        converged=converged,
        convergence_estimate=estimate,
        n_max_used=n_max,
    )


def ground_state_block(
    params: ModelParams,
    n_max: int = 64,
    tol: float = 1e-10,
    n_max_ceiling: int = N_MAX_CEILING,
) -> tuple[float, np.ndarray, float, int]:
    """Ground level of the (q=1/4, parity=-1) block: (energy, coeffs, estimate, n_max).

    Truncation doubles until the energy is stable to tol or the next
    rung would pass the ceiling; the estimate is inf when only one rung
    fits.  The coefficient vector's overall sign is fixed so its largest
    entry is positive.
    """

    def solve(n: int) -> tuple[float, np.ndarray]:
        block = build_parity_block(params, -1, n)
        w, v = eigh_tridiagonal(block.diag, block.offdiag, select="i", select_range=(0, 0))
        return float(w[0]), v[:, 0]

    (energy, coeffs), old, n_used = converge(
        solve, max(n_max, 8), n_max_ceiling, lambda new, old: abs(new[0] - old[0]) < tol
    )
    estimate = math.inf if old is None else abs(energy - old[0])
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
    n = np.arange(n_max)
    f = 2 * n + off
    s = -parity * (-1.0) ** n
    psi_up[f] = coeffs / math.sqrt(2.0)
    psi_dn[f] = s * coeffs / math.sqrt(2.0)
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


def qfi_spectral(
    params: ModelParams,
    n_max: int = 256,
    k_states: int = 64,
    rel_tol: float = 1e-6,
    n_max_ceiling: int = N_MAX_CEILING,
) -> float:
    """Coupling quantum Fisher information from the spectral sum.

    F_Q = 4 sum_(j!=0) |<j| dH/dg |0>|^2 / (E_j - E_0)^2 over the
    ground-state parity block; cross-parity matrix elements of dH/dg
    are checked to vanish (relative 1e-12) at the final truncation.  The
    excited-state count must exhaust the sum to rel_tol (the tail is
    estimated from the last quarter of the included terms); truncation
    doubles until F_Q itself is stable to rel_tol.
    """
    check_count("k_states", k_states)  # an empty tail would pass the tail gate

    def solve(n: int) -> tuple[float, np.ndarray]:
        block = build_parity_block(params, -1, n)
        w, v = eigh_tridiagonal(
            block.diag, block.offdiag, select="i", select_range=(0, min(k_states, n - 1))
        )
        nums = v[:, 1:].T @ tridiag_apply(np.zeros(n), block.coupling, v[:, 0])
        terms = 4.0 * nums**2 / (w[1:] - w[0]) ** 2
        f_q = float(terms.sum())
        tail = terms[-max(1, len(terms) // 4):].sum()
        if tail > rel_tol * f_q:
            raise ConvergenceError(
                f"spectral sum tail {tail:.3e} above {rel_tol:.0e} x F_Q = "
                f"{rel_tol * f_q:.3e} with k_states={k_states}; increase k_states"
            )
        return f_q, v[:, 0].copy()  # a view would keep all k_states vectors alive

    def held(new: tuple[float, np.ndarray], old: tuple[float, np.ndarray]) -> bool:
        return abs(new[0] - old[0]) <= rel_tol * new[0]

    new, old, n_cur = converge(solve, max(n_max, 4 * k_states), n_max_ceiling, held)
    if old is None or not held(new, old):
        raise ConvergenceError(f"F_Q not stable to {rel_tol:.0e} at truncation ceiling {n_cur}")
    _assert_cross_parity_selection_rule(params, new[1])
    return new[0]


def _assert_cross_parity_selection_rule(params: ModelParams, ground: np.ndarray) -> None:
    """Symmetry forbids <opposite parity| dH/dg |ground>; enforce it numerically."""
    up0, dn0 = block_to_spinfock(ground, parity=-1)
    dup, ddn = dg_hamiltonian_apply(up0, dn0, params.r)
    scale = math.sqrt(float(dup @ dup + ddn @ ddn))
    block_p = build_parity_block(params, +1, len(ground))
    _, vp = eigh_tridiagonal(block_p.diag, block_p.offdiag, select="i", select_range=(0, 3))
    for j in range(4):
        wu, wd = block_to_spinfock(vp[:, j], parity=+1)
        elem = float(wu @ dup + wd @ ddn)
        if abs(elem) > 1e-12 * max(scale, 1.0):
            raise RuntimeError(
                f"cross-parity element {elem:.3e} above 1e-12 x {scale:.3e}: "
                "parity bookkeeping violated"
            )


def qfi_fidelity_oracle(params: ModelParams, n_max: int = 256, eps: float = 1e-5) -> float:
    """QFI from the fidelity drop between ground states at g and g + eps.

    Independent of the spectral sum: F_Q ~ 8 (1 - |<psi(g)|psi(g+eps)>|) / eps^2.
    Both ground states pass the gate of the other ground-state consumers,
    else ConvergenceError.
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
    """Even-sector coefficients of S(theta)|0>, S(s) = exp[(s/2)(a'^2 - a^2)]."""
    return np.array([squeeze_element(m, 0, theta / 2.0, +1) for m in range(n_states)])


def conditional_photon_state(
    params: ModelParams, conditioning: str, n_max: int = 64, tol: float = 1e-10
) -> np.ndarray:
    """Normalized photon state after projecting the qubit, over the Fock index."""
    psi_up, psi_dn = _ground_spinfock(params, n_max, tol)
    if conditioning == "qubit-up":
        comp = psi_up
    elif conditioning == "qubit-down":
        comp = psi_dn
    else:
        raise ValueError(f"conditioning must be 'qubit-up' or 'qubit-down', got {conditioning!r}")
    return comp / np.linalg.norm(comp)


def _wigner_from_density(
    rho_pairs: list[tuple[int, int, float]], x_axis: np.ndarray, p_axis: np.ndarray
) -> np.ndarray:
    """Assemble W from Fock density entries via the Laguerre kernel.

    With alpha = (x + i p)/2 the contribution of |m><n| (m >= n) is
    (1/2pi) (-1)^n sqrt(n!/m!) (2 conj(alpha))^(m-n) L_n^(m-n)(4|alpha|^2)
    exp(-2|alpha|^2), plus the mirrored term for the transposed entry;
    the conjugated-argument convention is pinned by a brute-force
    position-integral oracle in the tests.
    """
    x = x_axis[None, :]
    p = p_axis[:, None]
    aa = (x * x + p * p) / 1.0  # 4|alpha|^2 with alpha=(x+ip)/2
    z = x - 1j * p  # 2 conj(alpha)
    envelope = np.exp(-0.5 * aa)
    total = np.zeros((len(p_axis), len(x_axis)))
    for m, n, val in rho_pairs:
        lo, hi = min(m, n), max(m, n)
        d = hi - lo
        pref = (-1.0) ** lo * math.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1)))
        lag = eval_genlaguerre(lo, d, aa)
        if d == 0:
            total += val * pref * lag
        else:
            # real state: |m><n| + |n><m| give 2 Re[(2 conj alpha)^d]
            total += 2.0 * val * pref * (z**d).real * lag
    return total * envelope / (2.0 * math.pi)


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
    """
    check_count("points", points, 3)  # the integral needs an interior point
    psi_up, psi_dn = _ground_spinfock(params, n_max, tol)

    if conditioning == "reduced":
        components = [psi_up, psi_dn]
    elif conditioning in ("qubit-up", "qubit-down"):
        comp = psi_up if conditioning == "qubit-up" else psi_dn
        components = [comp / np.linalg.norm(comp)]
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

    x_axis = np.linspace(-half_width, half_width, points)
    p_axis = np.linspace(-half_width, half_width, points)

    # one density matrix on the even Fock states of the support; in the reduced
    # state Z4 makes rho_mn exactly 0 wherever (m - n)/2 is odd
    support = max(int(np.max(np.nonzero(np.abs(psi_up) + np.abs(psi_dn) > 1e-14)[0])) + 1, 2)
    rho = sum(np.outer(comp[:support:2], comp[:support:2]) for comp in components)
    pairs = [(2 * int(m), 2 * int(n), float(rho[m, n]))
             for m, n in zip(*np.nonzero(np.tril(np.abs(rho) >= 1e-18)))]
    values = _wigner_from_density(pairs, x_axis, p_axis)

    edges = (values[0, :], values[-1, :], values[:, 0], values[:, -1])
    boundary = max(float(np.abs(edge).max()) for edge in edges)
    if boundary > 1e-6:
        raise ValueError(
            f"grid too narrow: boundary |W| = {boundary:.2e} > 1e-6, widen half_width"
        )
    norm = float(np.trapezoid(np.trapezoid(values, x_axis, axis=1), p_axis))
    return WignerGrid(x_axis=x_axis, p_axis=p_axis, values=values, normalization=norm)
