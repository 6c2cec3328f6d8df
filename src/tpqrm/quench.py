"""Linear coupling quenches and their residual-energy scaling.

The protocol ramps g(t) = g_f t / tau_q from the decoupled ground state
(the n = 0 basis state of the q=1/4, parity -1 block) and measures the
residual energy E_r = <psi(tau_q)|H(g_f)|psi(tau_q)> - E_0(g_f).

A step of length h is exp(Omega), the fourth-order Magnus step for the ramp
H(t) = D + lambda(t) C, lambda' = rate (Blanes, Casas, Oteo and Ros, Phys.
Rep. 470, 151 (2009)): Omega = -i h (D - E_0(g_f) + lambda_mid C) - (h^3 rate
/ 12) [C, D], anti-Hermitian and tridiagonal since [C, D] is real
antisymmetric with upper entries C_j (D_(j+1) - D_j).  exp(Omega) is
Padé(2,2), the product over d in {3 +- i sqrt 3} of (1 + Omega/d)(1 - Omega/d)^-1:
two tridiagonal solves a step, exactly unitary.  Each factor solves with
(1 - Omega/d)/2, which returns 2 (1 - Omega/d)^-1 psi bit for bit since
halving is exact, and takes one subtraction.  The shift by E_0(g_f) moves
only the global phase, and keeps the Padé phase error, x^5/720 a step at
x = h (E - E_0), small on the occupied levels.

The step is certified, not chosen: the run is repeated at half the step
until E_r is stable to 1%, and E_r is reported from the coarser step of
that pair.  The ladder starts at min(tau_q/100, (72 / (tau_q w^5))^(1/4)),
where the Padé phase of a mode of frequency w stays below 0.1 rad over the
run, with w the mode whose phase error can move E_r.  The abrupt start at
g = 0 excites omega01 = D_1 - D_0 with amplitude rate T01 / omega01^2
(T01 = C_0), whose interference can move E_r by B = 2 sqrt(T01^2 gap_f /
(omega01^4 chi_3)) relative (abrupt_start_bound), gap_f = E_1 - E_0 at g_f.
Where B is above a tenth of the gate, w = omega01.  Below it that term
cannot move E_r, and w = gap_f, the soft mode that carries the end-point
term (g_f/tau_q)^2 chi_3, as long as that term is at most gap_f (the ramp
is adiabatic at g_f).  Where it exceeds gap_f the ramp is impulsive at g_f
and the ladder starts at min(1, tau_q/100).  A record serves every tau_q
up to the caller's largest, tau_max: chi_3's resolvents stop once two
consecutive rungs, chi_3 rising, give an end-point term of at least
1e3 gap_f at tau_max and B at most a tenth of the gate; as long as chi_3
keeps rising, the rungs above would only raise the term and lower B, and
the branch is impulsive either way.  E_0(g_f) needs a truncation ladder
(near collapse the true ground state needs a far larger basis than the
propagated, frozen-out state ever occupies), held to 1e-10 over a
doubling: chi_3's, whose rungs solve the same block's ground pair, and
which climbs on with ground pairs alone once chi_3 has its verdict.  The
propagation basis is gated by requiring the occupancy of its top 10% of
states to stay below 1e-8, on ed.converge from min(n_max, 64) rows (which
may hold at once) to 4 n_max, so a row's n_max is the basis used.
Runs that share a step advance in lockstep, as the blocks of one
block-diagonal system: with the truncation check, each basis of the ladder
runs with its double, the next basis if it leaks and the check if it holds;
the check compares the two at the start step.

Freeze-out bookkeeping (zv = 1/2 fixed):

    g_K / g_c        = 1 - (4 sqrt(2) tau_q)^(-2/3)
    E_r (adiabatic)  = tau_q^-2 (g_f^2/g_c^2) / [16 (1 - g_f^2/g_c^2)^(5/2)]
    E_r (frozen)     = tau_q^-2 (4 sqrt(2) tau_q)^(5/3) / 16   (~ tau_q^(-1/3))

kz_predict evaluates these closed forms; kz_sweep measures slopes
independently of them.  adiabatic_reference gives the end-point term
(g_f/tau_q)^2 chi_3(g_f) of adiabatic perturbation theory without the
closed form's approximations, from the exact spectrum of the block; it is
the whole adiabatic E_r only as g_f -> g_c, where the gap at g_f dominates
(De Grandi and Polkovnikov, Lect. Notes Phys. 802, 75 (2010)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
# eigh_tridiagonal: bound only as a perfbench tracer leaf until ROADMAP direction 1, part A
from scipy.linalg import eigh_tridiagonal  # noqa: F401
from scipy.linalg.lapack import zgtsv

from .ed import (
    _RESPONSE_REL_TOL, N_MAX_CEILING, _ground_rung, _lowest_pairs, _response_held, _response_rung,
    build_parity_block, converge, tridiag_apply,
)
from .errors import ConvergenceError
from .model import ModelParams, check_count, check_finite, check_positive, critical_params

Z_NU = 0.5  # soft-mode gap exponent entering every closed form here

_NORM_DRIFT_TARGET = 1e-9
_LEAK_TARGET = 1e-8
_BASIS_START = 64  # the leakage ladder's first basis, when n_max is larger
_STEP_BUFFER_ENTRIES = 2**14  # off-diagonal entries built at once, for a chunk of steps
_ER_REL_TOL = 1e-2
_E0_CEILING = 131072
_E0_TOL = 1e-10  # the record's E_0 doubling gate
_PADE_ROOTS = (3.0 + 1j * math.sqrt(3.0), 3.0 - 1j * math.sqrt(3.0))  # -d: roots of 1+x/2+x^2/12


@dataclass(frozen=True)
class StartBound:
    """B of the module docstring, the two inputs abrupt_start_bound solved for it, and E_0.

    All four come from abrupt_start_bound's one ladder, which says where
    each is an estimate or nan.
    """

    bound: float
    gap_f: float = math.nan  # E_1 - E_0 at g_f; nan (as is chi_3) where chi_3 did not converge
    chi_3: float = math.nan
    e0: float = math.nan


@dataclass(frozen=True)
class QuenchProtocol:
    """Linear ramp g(t) = g_f t / tau_q at fixed Delta (default: critical).

    n_max scales the propagation basis, not E_0's ladder: propagate's
    leakage ladder climbs from min(n_max, 64) rows to at most 4 n_max.
    """

    g_f: float
    tau_q: float
    r: float
    delta: float | None = None
    n_max: int = 256
    dt: float | None = None

    def __post_init__(self):
        g_c, delta_c = critical_params(self.r)
        check_finite(g_f=self.g_f, delta=self.delta)
        check_positive(tau_q=self.tau_q, dt=self.dt)
        if not 0.0 < self.g_f < g_c:
            raise ValueError(f"g_f={self.g_f} must lie strictly inside (0, g_c={g_c})")
        check_count("n_max", self.n_max, 2)
        if self.delta is None:
            object.__setattr__(self, "delta", delta_c)

    @property
    def params_final(self) -> ModelParams:
        return ModelParams(delta=self.delta, g=self.g_f, r=self.r)

    def default_dt(self, start: StartBound) -> float:
        """Where the dt-halving ladder starts, given start from abrupt_start_bound.

        start = abrupt_start_bound(params_final, tau_max) with tau_max >=
        tau_q, as an early-stopped record holds only up to its tau_max.  The
        Padé phase bound on omega01 = 2 + Delta where B is above a tenth of
        the gate, on gap_f where it is not and the end-point term is at most
        gap_f, else min(1, tau_q/100) (module docstring).
        """
        if start.bound > 0.1 * _ER_REL_TOL:
            mode = 2.0 + self.delta  # omega01 = D_1 - D_0 of the block
        elif (self.g_f / self.tau_q) ** 2 * start.chi_3 > start.gap_f:  # impulsive at g_f
            return min(1.0, self.tau_q / 100.0)
        else:
            mode = start.gap_f
        return min(self.tau_q / 100.0, (720.0 * 0.1 / (self.tau_q * mode**5)) ** 0.25)

    def start_dt(self) -> float:
        """dt if given, else default_dt at abrupt_start_bound(params_final, tau_q) (one solve)."""
        return self.dt if self.dt is not None else self.default_dt(
            abrupt_start_bound(self.params_final, self.tau_q))

    def check_samples(self, n_samples: int) -> None:
        """Reject a trajectory sample count the start step's run cannot give.

        The start step is the ladder's coarsest rung, so every rung has at
        least as many steps as this one.
        """
        check_count("n_samples", n_samples, 0)
        if n_samples and n_samples > (n_steps := _n_steps(self.tau_q, self.start_dt())):
            raise ValueError(f"n_samples={n_samples} exceeds the run's n_steps={n_steps}; "
                             f"a smaller dt (--dt) allows more samples")


@dataclass(frozen=True)
class QuenchResult:
    residual_energy: float
    norm_drift: float
    n_max: int
    dt: float
    ground_energy: float
    samples: np.ndarray | None = None  # columns: t, g, <H(g)>


@dataclass(frozen=True)
class KZPrediction:
    g_k: float
    e_r_adiabatic: float
    e_r_kz: float


def ground_energy_final(protocol: QuenchProtocol, start: StartBound | None = None) -> float:
    """E_0 at g_f: the e0 of start, else of abrupt_start_bound(params_final, tau_q).

    ConvergenceError where that record holds none: E_0 still moved by
    _E0_TOL over its last doubling at _E0_CEILING.
    """
    if start is None:
        start = abrupt_start_bound(protocol.params_final, protocol.tau_q)
    if math.isnan(start.e0):
        raise ConvergenceError(
            f"ground energy at g_f not converged to {_E0_TOL:.0e} below n_max={_E0_CEILING}"
        )
    return start.e0


def abrupt_start_bound(params: ModelParams, tau_max: float = math.inf) -> StartBound:
    """B of the module docstring at g_f, with the gap_f, chi_3 and E_0 of its solve.

    One ladder on the ground block, from 256 rows to _E0_CEILING, gives
    chi_3 and E_0.  Its rungs solve chi_3 until it has a verdict: held to
    1e-6, unconverged (at ed.N_MAX_CEILING rows, or a resolvent off its
    residual gate), or impulsive for every tau_q <= tau_max on two
    consecutive rungs, none at tau_max = inf: (g_f / tau_max)^2 chi_3 >=
    1e3 gap_f, B <= a tenth of the gate and chi_3 above the rung below's
    (chi_3 then a lower and B an upper estimate).  Later rungs solve the
    ground pair alone, until E_0 moves by less than _E0_TOL.  B is inf and
    gap_f, chi_3 nan if chi_3 is unconverged; e0 is nan if E_0 did not hold.
    """
    # gap_f from 256 rows: near collapse that overestimates it (0.0124 against 0.0023 at
    # 1 - 1e-6 g_c, where 4,096 rows hold it; equal at 0.99 g_c).  B grows with gap_f, so
    # it errs toward the omega01 phase bound, the smallest start; the impulsive test and
    # the early exit weigh the end-point term against gap_f, so they err toward the
    # adiabatic branch and the full ladder; that branch's Pade bound falls as gap_f rises
    block = build_parity_block(params, -1, 256)
    levels = _lowest_pairs(block.diag, block.offdiag, 2, None)[0]
    gap_f = float(levels[1] - levels[0])
    omega01 = block.diag[1] - block.diag[0]

    def bound(chi_3: float) -> float:  # 0 where the start excites nothing (T01 = 0 at r = 0)
        return 0.0 if block.coupling[0] == 0.0 else 2.0 * math.sqrt(
            block.coupling[0] ** 2 * gap_f / (omega01**4 * chi_3))

    def impulsive(chi_3: float, below: float | None) -> bool:
        return ((params.g / tau_max) ** 2 * chi_3 >= 1e3 * gap_f
                and bound(chi_3) <= 0.1 * _ER_REL_TOL and (below is None or chi_3 > below))

    def rung(n: int, below: tuple | None) -> tuple:  # (chi_3, ground pair, impulsive, verdict)
        chi_below, pair_below, impulsive_below, verdict = below or (None, None, False, None)
        if verdict:  # chi_3 settled: the ground pair alone
            return chi_below, _ground_rung(params, n, pair_below), impulsive_below, verdict
        try:
            chi_3, pair = _response_rung(params, n, pair_below, 3)
        except ConvergenceError:  # a resolvent missed its residual gate
            return math.nan, _ground_rung(params, n, pair_below), False, "unconverged"
        now = impulsive(chi_3, chi_below)
        verdict = ("held" if chi_below is not None and _response_held(chi_3, chi_below)
                   else "impulsive" if now and impulsive_below
                   else "unconverged" if 2 * n > N_MAX_CEILING else None)
        return chi_3, pair, now, verdict

    (chi_3, pair, _, verdict), _, _, held = converge(  # chi_3 settles by N_MAX_CEILING rows,
        rung, 256, _E0_CEILING, lambda new, old: bool(new[3]) and old is not None
        and abs(new[1][0][0] - old[1][0][0]) < _E0_TOL)  # so held says whether E_0 held
    e0 = float(pair[0][0]) if held else math.nan
    if verdict not in ("held", "impulsive"):
        return StartBound(math.inf, e0=e0)
    return StartBound(bound(chi_3), gap_f, chi_3, e0)


def _n_steps(tau_q: float, dt: float) -> int:
    return max(1, int(round(tau_q / dt)))


def _propagate_once(
    protocol: QuenchProtocol, bases: tuple[int, ...], dt: float, n_samples: int, e0: float
) -> list[tuple[float, float, float, list[tuple[float, float, float]]]]:
    """Runs of fourth-order Magnus steps, one per basis, advanced in lockstep at one dt.

    The bases are the blocks of one block-diagonal system whose coupling and
    skew are zero at each junction, so a step is one zgtsv per Padé factor for
    all of them.  A zero subdiagonal never pivots and eliminates nothing, so
    each block is bitwise its own run.  Returns (E_r, norm_drift, leak,
    samples) per basis.
    """
    blocks = [build_parity_block(protocol.params_final, -1, n) for n in bases]
    edges = np.cumsum((0, *bases))
    parts = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    diag = np.concatenate([block.diag for block in blocks])
    coupling = np.concatenate([np.append(block.coupling, 0.0) for block in blocks])[:-1]
    psi = np.zeros(edges[-1], dtype=complex)
    psi[edges[:-1]] = 1.0

    def energy(block, v: np.ndarray, g: float) -> float:  # <v|H(g)|v> on one block
        return float(np.real(np.vdot(v, tridiag_apply(block.diag, g * block.coupling, v))))

    n_steps = _n_steps(protocol.tau_q, dt)
    dt = protocol.tau_q / n_steps
    rate = protocol.g_f / protocol.tau_q
    # (1 - Omega/d) / 2: the diagonal (1 + i dt (D - E_0) / d) / 2, built once; off-diagonals
    # (lambda_mid ramp -+ skew) / 2 (lower, upper), skew from the [C, D] term.  Rows of ramps
    # and skews: lower and upper for the first root, then for the second.  Halving is exact,
    # so each solve returns 2 (1 - Omega/d)^-1 psi bit for bit
    half_diags = [0.5 * (1.0 + 1j * dt * (diag - e0) / d) for d in _PADE_ROOTS]
    ramps, skews = [], []
    for d in _PADE_ROOTS:
        skew = (dt**3 * rate / 12.0) * coupling * np.diff(diag) / d
        ramps += [1j * dt * coupling / d] * 2
        skews += [-skew, skew]
    ramps, skews = 0.5 * np.array(ramps), 0.5 * np.array(skews)
    # the off-diagonals of a chunk of steps, built by one multiply-add; each solve overwrites
    # its step's rows
    offdiags = np.empty((max(1, _STEP_BUFFER_ENTRIES // ramps.size), *ramps.shape), dtype=complex)

    # n_samples evenly spaced steps, the last one at t = tau_q
    sample_at = {(k + 1) * n_steps // n_samples for k in range(n_samples)}
    samples: list[list[tuple[float, float, float]]] = [[] for _ in bases]

    for start in range(0, n_steps, len(offdiags)):
        steps = np.arange(start, min(start + len(offdiags), n_steps))
        chunk = offdiags[:len(steps)]
        np.multiply.outer(rate * (steps + 0.5) * dt, ramps, out=chunk)
        chunk += skews
        for step, step_offdiags in enumerate(chunk, start):
            for half_diag, lower, upper in zip(half_diags, step_offdiags[::2], step_offdiags[1::2]):
                # (1 + Omega/d)(1 - Omega/d)^-1 psi = 2 (1 - Omega/d)^-1 psi - psi
                *_, y, info = zgtsv(lower, half_diag, upper, psi, overwrite_dl=True,
                                    overwrite_du=True)
                if info != 0:
                    raise RuntimeError(f"tridiagonal solve failed (LAPACK info={info})")
                y -= psi
                psi = y
            if step + 1 in sample_at:
                t_now = (step + 1) * dt
                for block, part, trajectory in zip(blocks, parts, samples):
                    trajectory.append((t_now, rate * t_now, energy(block, psi[part], rate * t_now)))

    return [(energy(block, psi[part], protocol.g_f) - e0,
             abs(float(np.linalg.norm(psi[part])) - 1.0),  # norm drift
             float(np.sum(np.abs(psi[part][int(0.9 * len(block.diag)):]) ** 2)),  # leak
             trajectory) for block, part, trajectory in zip(blocks, parts, samples)]


def propagate(protocol: QuenchProtocol, n_samples: int = 0, check_truncation: bool = False,
              start: StartBound | None = None) -> QuenchResult:
    """Run the quench; report E_r only once dt-halving moves it by < 1%.

    The basis ladder (converge) starts at min(n_max, 64) rows and doubles
    until its top decile holds below 1e-8; the result's n_max is the basis
    it reached.  With check_truncation each basis of that ladder runs in
    lockstep with its double (one block-diagonal system), which is the next
    basis if it leaks and the truncation check's run if it holds; without
    it, one basis runs at a time.  E_r, the trajectory and the norm drift
    all come from the reported run.  Raises ConvergenceError on basis
    leakage (still above 1e-8 at the last basis not above 4 n_max), on dt
    non-convergence (three halvings), on norm drift above 1e-9, and, with
    check_truncation, when doubling the basis reached moves E_r by more
    than 1% at the start step (the lockstep pair).  start is the quench
    record, abrupt_start_bound(params_final, tau_max >= tau_q), which the
    caller may hold (kz_sweep solves one a sweep); without it one is solved
    at tau_q.  It serves both the start step (without dt) and E_0.
    """
    if start is None:
        start = abrupt_start_bound(protocol.params_final, protocol.tau_q)
    dt = protocol.dt if protocol.dt is not None else protocol.default_dt(start)
    replace(protocol, dt=dt).check_samples(n_samples)  # with dt resolved: B is not solved again
    e0 = ground_energy_final(protocol, start)

    runs = {}  # (basis, dt halvings) -> (E_r, norm_drift, leak, samples), each run once

    def run(n: int, halvings: int, paired: bool = False) -> tuple:  # paired: 2n in lockstep
        if (n, halvings) not in runs:
            bases = (n, 2 * n) if paired else (n,)
            runs.update(((basis, halvings), out) for basis, out in
                        zip(bases, _propagate_once(protocol, bases, dt / halvings, n_samples, e0)))
        return runs[n, halvings]

    (_, _, leak, _), _, n_max, held = converge(
        lambda n, _previous: run(n, 1, check_truncation), min(protocol.n_max, _BASIS_START),
        4 * protocol.n_max, lambda new, _old: not new[2] > _LEAK_TARGET)
    if not held:
        raise ConvergenceError(
            f"basis leakage {leak:.2e} above {_LEAK_TARGET:.0e} at n_max={n_max}")

    def stable(new: float, old: float) -> bool:
        return abs(new - old) <= _ER_REL_TOL * max(abs(new), 1e-300)

    # E_r, its drift and the trajectory all come from the coarser rung of the held pair
    _, (e_r, drift, _, samples), halvings, held = converge(
        lambda h, _previous: run(n_max, h), 1, 8,
        lambda new, old: old is not None and stable(new[0], old[0]))
    if not held:
        raise ConvergenceError(
            f"E_r not stable to {_ER_REL_TOL:.0%} under dt halving (last dt={dt / halvings:.2e})"
        )
    if drift > _NORM_DRIFT_TARGET:
        raise ConvergenceError(f"norm drift {drift:.2e} above {_NORM_DRIFT_TARGET:.0e}")

    if check_truncation:  # n_max and its double at the start step: the leakage ladder's pair
        e_r_start, e_r_dbl = run(n_max, 1)[0], run(2 * n_max, 1)[0]
        if not stable(e_r_dbl, e_r_start):
            raise ConvergenceError(
                f"E_r moves by {abs(e_r_dbl - e_r_start):.2e} (> 1%) when doubling n_max={n_max}")

    return QuenchResult(
        residual_energy=e_r,
        norm_drift=drift,
        n_max=n_max,
        dt=dt / (halvings // 2),  # the coarser step of the held pair
        ground_energy=e0,
        samples=np.array(samples) if n_samples else None,
    )


def kz_predict(tau_q: float, params: ModelParams) -> KZPrediction:
    """Freeze-out coupling and both residual-energy regimes for this tau_q.

    zv is pinned to 1/2 here; measured slopes (kz_sweep + fits) stay
    independent of these closed forms.
    """
    if tau_q <= 1.0:
        raise ValueError("freeze-out formulas assume tau_q > 1")
    g_c = params.g_c
    g_k = g_c * (1.0 - (4.0 * math.sqrt(2.0) * tau_q) ** (-1.0 / (3.0 * Z_NU)))
    ratio_sq = (params.g / g_c) ** 2
    e_ad = tau_q**-2 * ratio_sq / (16.0 * (1.0 - ratio_sq) ** (5.0 * Z_NU))
    e_kz = tau_q**-2 * (4.0 * math.sqrt(2.0) * tau_q) ** (5.0 / 3.0) / 16.0
    return KZPrediction(g_k=g_k, e_r_adiabatic=e_ad, e_r_kz=e_kz)


def adiabatic_reference(g_f: float, tau_q: float, params: ModelParams) -> float:
    """End-point term (g_f/tau_q)^2 chi_3(g_f) of adiabatic perturbation theory for the ramp.

    This is the whole adiabatic E_r only where the gap at g_f dominates
    (g_f -> g_c); it leaves out the term from the abrupt start at g = 0 and
    its interference with this one.  chi_3 = sum_(j!=0) |<j| dH/dg |0>|^2 /
    (E_j - E_0)^3 over the ground-state block is abrupt_start_bound's, at
    tau_max = inf (its full ladder to chi_3's 1e-6 gate); ConvergenceError
    where chi_3 is unconverged.  params supplies (delta, r).
    """
    final = QuenchProtocol(g_f=g_f, tau_q=tau_q, r=params.r, delta=params.delta).params_final
    chi_3 = abrupt_start_bound(final).chi_3
    if math.isnan(chi_3):
        raise ConvergenceError(
            f"chi_3 not stable to {_RESPONSE_REL_TOL:.0e} at truncation ceiling {N_MAX_CEILING}")
    return (g_f / tau_q) ** 2 * chi_3


def kz_sweep(
    g_f: float,
    tau_list: np.ndarray | list[float],
    params: ModelParams,
    n_max: int = 256,
    dt: float | None = None,
    n_samples: int = 0,
) -> list[dict]:
    """Residual energy across quench times; unconverged points are flagged.

    params supplies (delta, r); g_f is the common endpoint.  Each point
    carries its own dt-halving and truncation checks; failures mark the
    row converged=False rather than aborting the sweep.  A converged row's
    n_max is the basis propagate reached, from min(n_max, 64) up to at
    most 4 n_max, each basis run in lockstep with its double, the
    truncation check; an unconverged row keeps the caller's n_max.
    "samples" holds the run's n_samples trajectory samples (None if 0 or
    unconverged).
    One abrupt_start_bound solve serves the sweep, dt given or not, with
    tau_max the largest tau_q: without dt each point starts at its
    default_dt, the adiabatic or impulsive branch chosen per tau_q.
    n_samples must fit every point's start step; a count one point's step
    count cannot give raises ValueError before any point runs.  propagate
    takes the record; where it holds no E_0(g_f), every row is unconverged.
    """
    protocols = [QuenchProtocol(g_f=g_f, tau_q=float(t), r=params.r, delta=params.delta,
                                n_max=n_max, dt=dt) for t in tau_list]
    if not protocols:
        return []
    start = abrupt_start_bound(protocols[0].params_final, max(p.tau_q for p in protocols))
    if dt is None:
        protocols = [replace(p, dt=p.default_dt(start)) for p in protocols]
    for protocol in protocols:
        protocol.check_samples(n_samples)

    def one(protocol: QuenchProtocol) -> dict:
        row = {
            "g_f_over_gc": g_f / params.g_c,
            "tau_q": protocol.tau_q,
            "e_r": math.nan,
            "norm_drift": math.nan,
            "n_max": protocol.n_max,
            "dt": protocol.dt,
            "converged": False,
            "samples": None,
        }
        try:
            res = propagate(protocol, n_samples=n_samples, check_truncation=True, start=start)
        except ConvergenceError:
            return row
        row.update(
            e_r=res.residual_energy,
            norm_drift=res.norm_drift,
            n_max=res.n_max,
            dt=res.dt,
            converged=True,
            samples=res.samples,
        )
        return row

    return [one(p) for p in protocols]
