"""The four workloads: their inputs from a seed, the library calls, and the checks.

Each workload is the pinned computation of one group of acceptance criteria,
run as a sequence of *points* in a closed loop (one caller; each point starts
when the previous one has finished).  A point records

- its outputs, each with the tolerance it is compared to the seed-0
  reference with (never looser than the gate the program applies to it),
- flags: the program itself reported the point unconverged or it missed
  its own gate,
- violations: an invariant the tests rely on does not hold.

Seed 0 runs the pinned grids exactly.  Any other seed moves the interior
points of every sweep by up to a quarter of the grid spacing (the window's
endpoints stay pinned), and moves the single Wigner, frame and quench
points by a similarly small amount.  Moved points are checked by invariants
instead of references; pinned points by both.

The library is reached only through module attributes (``tp.ed.ed_spectrum``,
never a name imported from it), so the traced run sees every call.
"""

from __future__ import annotations

import math
import traceback
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

R_VALUES = (0.25, 0.60)

# Sweep windows: (x_min, x_max, points) in x = -log10(1 - g/g_c).
GAPS_A = (1.5, 3.0, 9)
GAPS_B = (2.5, 4.5, 7)
OBSERVABLES = (3.5, 5.5, 7)
QFI = (2.5, 4.5, 7)
ORACLE_POINTS = ((0.25, 0.6, 0.5), (0.6, None, 0.9), (0.25, None, 0.9))
GAP_OFFSETS = (0.06, 0.11, 6)
THETAS = (0.3, 0.7, 1.5)
KZ_POINTS = (  # (g_f / g_c, tau_q, n_max); tau_q = 100 is interior to its log sweep
    (1.0 - 1e-6, 100.0, 512),
    (0.99, 1000.0, 256),
)


@dataclass(frozen=True)
class Tol:
    """Allowed deviation from the reference: 'abs' or 'rel' (to |reference|)."""

    kind: str
    value: float

    def exceeded(self, got: np.ndarray, ref: np.ndarray) -> np.ndarray:
        """Entries off by more than the tolerance; NaN counts as off."""
        scale = 1.0 if self.kind == "abs" else np.abs(ref)
        return ~(np.abs(got - ref) <= self.value * scale)


@dataclass
class Point:
    key: str
    pinned: bool
    outputs: dict = field(default_factory=dict)  # name -> (list, Tol | None when moved)
    flags: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    gate_error: str | None = None
    error: str | None = None

    def output(self, name: str, value, tol: Tol, moved_tol: Tol | None = None) -> None:
        """Record an output; moved points compare it only when moved_tol is given."""
        values = np.atleast_1d(np.asarray(value, dtype=float)).tolist()
        self.outputs[name] = (values, tol if self.pinned else moved_tol)

    def flag(self, condition: bool, message: str) -> None:
        if condition:
            self.flags.append(message)

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.violations.append(message)


class Recorder:
    """Collects the points of one pass; a raising point is recorded, not fatal."""

    def __init__(self, gate_errors: tuple, tracer=None):
        self.points: list[Point] = []
        self._gate_errors = gate_errors
        self._tracer = tracer

    @contextmanager
    def point(self, key: str, pinned: bool = True):
        pt = Point(key, pinned)
        try:
            with self._tracer.point(key) if self._tracer else nullcontext():
                yield pt
        except self._gate_errors as exc:
            pt.gate_error = f"{type(exc).__name__}: {exc}"
        except Exception:  # the pass goes on; the point counts as wrong
            pt.error = traceback.format_exc().strip()
        self.points.append(pt)


# -- inputs -------------------------------------------------------------------


def _fractions(seed: int, name: str, n: int) -> np.ndarray:
    """n fractions in [-1, 1), fixed by (seed, name); all zero at seed 0."""
    if seed == 0:
        return np.zeros(n)
    rng = np.random.default_rng(zlib.crc32(f"{name}:{seed}".encode()))
    return rng.uniform(-1.0, 1.0, n)


def _sweep(seed: int, name: str, lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid over [lo, hi] with interior points moved by up to 1/4 spacing.

    Returns (values, pinned) where pinned marks points left where seed 0
    puts them.
    """
    values = np.linspace(lo, hi, n)
    shift = _fractions(seed, name, n) * 0.25 * (hi - lo) / (n - 1)
    shift[[0, -1]] = 0.0
    return values + shift, shift == 0.0


def make_plan(name: str, seed: int) -> dict:
    """Every input of one workload, generated from the seed alone."""
    plan: dict = {"seed": seed}
    if name == "critical-sweep":
        for r in R_VALUES:
            for sweep, window in (("gaps_a", GAPS_A), ("gaps_b", GAPS_B),
                                  ("observables", OBSERVABLES), ("qfi", QFI)):
                plan[sweep, r] = _sweep(seed, f"{sweep}/{r}", *window)
    elif name == "phase-space":
        u = _fractions(seed, "phase-space", 3)
        # the Wigner cost grows with the state's Fock support, which moves
        # quickly with g: a 0.0005 shift keeps the work within ~1%
        plan["wigner_g"] = 0.95 + 0.0005 * u[0]
        plan["frame_beta"] = 0.3 + 0.01 * u[1]
        plan["thetas"] = (THETAS[0], THETAS[1] + 0.1 * u[2], THETAS[2])
    elif name == "kz-quench":
        u = _fractions(seed, "kz-quench", 1)
        # a quarter of the sweep's half-decade spacing, in log tau_q
        (gf0, tau0, n0), second = KZ_POINTS
        plan["points"] = ((gf0, tau0 * 10 ** (0.125 * u[0]), n0), second)
    elif name == "collapse-point":
        for r in R_VALUES:
            plan["offsets", r] = _sweep(seed, f"offsets/{r}", *GAP_OFFSETS)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return plan


def _couplings(r: float, x: np.ndarray, g_c: float) -> np.ndarray:
    # the mapping of analysis.make_grid, applied to possibly moved x
    return g_c * (1.0 - 10.0 ** (-x))


# -- tolerances ---------------------------------------------------------------
# Each is the program's own gate for that output, or tighter.

LEVELS = Tol("abs", 1e-10)          # ed_spectrum tol
LEVELS_FINE = Tol("abs", 1e-11)     # ed_spectrum tol=1e-11 of criterion 08
GAPS = Tol("abs", 2e-10)            # differences of two LEVELS
OBSERVABLE = Tol("rel", 1e-8)       # ground-state gate max(tol, 1e-8)
F_Q = Tol("rel", 1e-6)              # qfi_spectral rel_tol
F_Q_ORACLE = Tol("rel", 1e-3)       # spectral-vs-oracle gate of criterion 04
EXPONENT = Tol("abs", 1e-5)         # fits of outputs accurate to <= 1e-6
FRAME = Tol("abs", 1e-8)            # squeezed_frame_spectrum tol
WIGNER = Tol("abs", 1e-8)
FIDELITY = Tol("rel", 1e-8)
SQUEEZE = Tol("abs", 1e-10)
E_R = Tol("rel", 1e-2)              # propagate dt-halving gate
KAPPA4 = Tol("rel", 5e-3)           # bound_states (2L, h/2) refinement gate
MAPPED = Tol("rel", 1e-3)           # collapse_hamiltonian_check rel_tol
BLOCK_LEVELS = Tol("abs", 1e-9)     # fixed-size eigenvalues, ||H|| ~ 4 n_max
GAP_FIXED_N = Tol("rel", 1e-6)      # lowest_level at fixed n_max
EXACT = Tol("abs", 0.0)


# -- warm-up ------------------------------------------------------------------


def warm_up(name: str, tp) -> None:
    """One call at the smallest size into each layer the workload uses."""
    p = tp.model.ModelParams(delta=0.6, g=0.1, r=0.25)
    if name == "critical-sweep":
        tp.ed.ed_spectrum(p, tp.model.SectorSpec(0.25, -1), n_max=8, k=2, n_max_ceiling=16)
        tp.ed.ed_ground_observables(p, 8)
        tp.ed.qfi_spectral(p, n_max=16, k_states=4, n_max_ceiling=32)
        tp.ed.qfi_fidelity_oracle(p, n_max=8)
        tp.analysis.fit_powerlaw([1, 2, 3, 4, 5], [1, 4, 9, 16, 25])
    elif name == "phase-space":
        tp.ed.wigner_grid(p, n_max=8, points=9)
        tp.ed.ed_ground_observables(p, 8)
        tp.ed.conditional_photon_state(p, "qubit-down", 8)
        tp.ed.squeezed_vacuum_coeffs(0.1, 4)
        tp.ed.ed_spectrum(p, tp.model.SectorSpec(0.25, -1), n_max=8, k=2, n_max_ceiling=16)
        tp.ed.squeezed_frame_spectrum(p, -1, 8, k=2)
        tp.specfun.squeeze_matrix(0.3, 4, +1)
    elif name == "kz-quench":
        protocol = tp.quench.QuenchProtocol(g_f=0.1, tau_q=1.0, r=0.25, n_max=8, dt=0.1)
        tp.quench.propagate(protocol, check_truncation=True)
    elif name == "collapse-point":
        tp.collapse1d.bound_states(tp.collapse1d.Collapse1DProblem(delta=3.0, L=8.0, h=0.5), k=2)
        tp.collapse1d.collapse_hamiltonian_check(0.0, 128)
        tp.ed.lowest_level(p, -1, 8)
        tp.analysis.fit_quadratic_gap([0.1, 0.2, 0.3, 0.4, 0.5], [1, 2, 3, 4, 5], 0.0)
    else:
        raise ValueError(f"unknown workload {name!r}")


# -- passes -------------------------------------------------------------------


def _critical_sweep(tp, plan: dict, rec: Recorder) -> None:
    ModelParams, SectorSpec = tp.model.ModelParams, tp.model.SectorSpec
    for r in R_VALUES:
        g_c, delta_c = tp.model.critical_params(r)

        # criteria 01-02: soft-mode and parity-splitting gaps, two windows
        for sweep, fits in (("gaps_a", ("sp", "dp")), ("gaps_b", ("sp",))):
            xs, pinned = plan[sweep, r]
            series = {"u": [], "sp": [], "dp": []}
            for i, (g, pin) in enumerate(zip(_couplings(r, xs, g_c), pinned)):
                with rec.point(f"{sweep}/r={r}/{i}", bool(pin)) as pt:
                    p = ModelParams(delta=delta_c, g=g, r=r)
                    minus = tp.ed.ed_spectrum(p, SectorSpec(0.25, -1), n_max=256, tol=1e-10, k=2)
                    plus = tp.ed.ed_spectrum(p, SectorSpec(0.25, +1), n_max=256, tol=1e-10, k=2)
                    pt.flag(not (minus.converged.all() and plus.converged.all()),
                            "ed_spectrum: level unconverged at the truncation ceiling")
                    sp = minus.energies[1] - minus.energies[0]
                    dp = abs(plus.energies[0] - minus.energies[0])
                    pt.output("levels_minus", minus.energies, LEVELS)
                    pt.output("levels_plus", plus.energies, LEVELS)
                    pt.output("gaps", [sp, dp], GAPS)
                    pt.require(sp > 0 and dp > 0, "gaps must be positive")
                    series["u"].append(1.0 - g / g_c)
                    series["sp"].append(sp)
                    series["dp"].append(dp)
            for kind in fits:
                with rec.point(f"{sweep}/r={r}/fit_{kind}", bool(pinned.all())) as pt:
                    fit = tp.analysis.fit_powerlaw(series["u"], series[kind])
                    window_tol = 0.02 if kind == "sp" else 0.05  # criteria 01 / 02
                    pt.output("exponent", fit.exponent, EXPONENT, Tol("abs", window_tol))

        # criterion 03: ground-state observables at n_max = 2048
        xs, pinned = plan["observables", r]
        u, rows = [], []
        for i, (g, pin) in enumerate(zip(_couplings(r, xs, g_c), pinned)):
            with rec.point(f"observables/r={r}/{i}", bool(pin)) as pt:
                obs = tp.ed.ed_ground_observables(ModelParams(delta=delta_c, g=g, r=r), 2048)
                values = [obs.photon, obs.sigma_x, obs.dx, obs.dp]
                pt.output("observables", values, OBSERVABLE)
                pt.require(obs.photon > 0 and 0 < obs.sigma_x <= 1 and obs.dx * obs.dp >= 1,
                           "observables outside their physical range")
                u.append(1.0 - g / g_c)
                rows.append(values)
        with rec.point(f"observables/r={r}/fits", bool(pinned.all())) as pt:
            exps = [tp.analysis.fit_powerlaw(u, col).exponent for col in zip(*rows)]
            pt.output("exponents", exps, EXPONENT, Tol("abs", 0.02))

        # criterion 04: spectral QFI at n_max = 2048
        xs, pinned = plan["qfi", r]
        u, f_q = [], []
        for i, (g, pin) in enumerate(zip(_couplings(r, xs, g_c), pinned)):
            with rec.point(f"qfi/r={r}/{i}", bool(pin)) as pt:
                value = tp.ed.qfi_spectral(ModelParams(delta=delta_c, g=g, r=r), n_max=2048)
                pt.output("f_q", value, F_Q)
                pt.require(value > 0, "F_Q must be positive")
                u.append(1.0 - g / g_c)
                f_q.append(value)
        with rec.point(f"qfi/r={r}/fit", bool(pinned.all())) as pt:
            fit = tp.analysis.fit_powerlaw(u, f_q)
            pt.output("exponent", fit.exponent, EXPONENT, Tol("abs", 0.05))

    for i, (r, delta, gfrac) in enumerate(ORACLE_POINTS):
        with rec.point(f"oracle/{i}") as pt:
            g_c, delta_c = tp.model.critical_params(r)
            p = ModelParams(delta=delta_c if delta is None else delta, g=gfrac * g_c, r=r)
            spectral = tp.ed.qfi_spectral(p)
            fidelity = tp.ed.qfi_fidelity_oracle(p)
            pt.output("f_q", spectral, F_Q)
            pt.output("f_q_oracle", fidelity, F_Q_ORACLE)
            pt.require(abs(spectral - fidelity) < 1e-3 * spectral,
                       "spectral QFI and fidelity oracle differ by 1e-3 or more")


def _phase_space(tp, plan: dict, rec: Recorder) -> None:
    ModelParams, SectorSpec = tp.model.ModelParams, tp.model.SectorSpec
    pinned = plan["seed"] == 0

    # criterion 10: reduced Wigner function and the qubit-down conditional state
    g_c, delta_c = tp.model.critical_params(0.25)
    p = ModelParams(delta=delta_c, g=plan["wigner_g"] * g_c, r=0.25)
    with rec.point("wigner", pinned) as pt:
        grid = tp.ed.wigner_grid(p, n_max=128, conditioning="reduced")
        obs = tp.ed.ed_ground_observables(p, 128)
        x, y = np.meshgrid(grid.x_axis, grid.p_axis)
        m2x = np.trapezoid(np.trapezoid(grid.values * x**2, grid.x_axis, axis=1), grid.p_axis)
        m2p = np.trapezoid(np.trapezoid(grid.values * y**2, grid.x_axis, axis=1), grid.p_axis)
        pt.output("w_sample", grid.values[::8, ::8], WIGNER)
        pt.output("normalization", grid.normalization, WIGNER)
        pt.output("observables", [obs.photon, obs.sigma_x, obs.dx, obs.dp], OBSERVABLE)
        pt.require(abs(grid.normalization - 1.0) < 1e-3, "Wigner normalization off by 1e-3")
        pt.require(max(abs(m2x / obs.dx**2 - 1.0), abs(m2p / obs.dp**2 - 1.0)) < 0.01,
                   "Wigner second moments differ from ed_ground_observables by 1%")
    with rec.point("conditional", pinned) as pt:
        cond = tp.ed.conditional_photon_state(p, "qubit-down", 256)
        even = np.arange(0, len(cond), 2)
        vacuum = tp.ed.squeezed_vacuum_coeffs(tp.model.geometry(p).theta, len(even))
        fidelity = abs(float(cond[even] @ vacuum))
        pt.output("fidelity", fidelity, FIDELITY)
        pt.require(0.0 < fidelity <= 1.0 + 1e-12, "fidelity outside (0, 1]")

    # criterion 08(c): the two frames at r = 0.6
    g_c, delta_c = tp.model.critical_params(0.6)
    beta = plan["frame_beta"]
    p = ModelParams(delta=delta_c, g=g_c * math.sqrt(1.0 - beta**2), r=0.6)
    for parity in (+1, -1):
        with rec.point(f"frame/parity={parity:+d}", pinned) as pt:
            reference = tp.ed.ed_spectrum(p, SectorSpec(0.25, parity), n_max=256, tol=1e-11, k=6)
            frame = tp.ed.squeezed_frame_spectrum(p, parity, 480, k=6)
            pt.flag(not reference.converged.all(), "ed_spectrum: level unconverged")
            pt.flag(not frame.converged.all(),
                    "squeezed_frame_spectrum flagged unconverged: half-size estimate "
                    f"{frame.convergence_estimate.max():.1e} against tol 1e-8")
            pt.output("levels", reference.energies, LEVELS_FINE)
            pt.output("frame_levels", frame.energies, FRAME)
            allowed = max(frame.convergence_estimate.max(),
                          reference.convergence_estimate.max(),
                          1e-10 * np.abs(reference.energies).max())
            pt.require(np.abs(frame.energies - reference.energies).max() <= allowed,
                       "the two frames disagree beyond their convergence estimates")

    # criterion 08(d): squeeze matrices at n_max = 120
    for i, theta in enumerate(plan["thetas"]):
        with rec.point(f"squeeze/{i}", pinned or i != 1) as pt:
            plus = tp.specfun.squeeze_matrix(theta, 120, +1).entries
            minus = tp.specfun.squeeze_matrix(theta, 120, -1).entries
            pt.output("entries_sample", plus[::8, ::8], SQUEEZE)
            pt.require(np.array_equal(plus, minus.T), "S(2t) != S(-2t)^T bit for bit")


def _kz_quench(tp, plan: dict, rec: Recorder) -> None:
    r = 0.25
    g_c, delta_c = tp.model.critical_params(r)
    for i, (gf_frac, tau_q, n_max) in enumerate(plan["points"]):
        g_f = gf_frac * g_c
        with rec.point(f"kz/{i}", tau_q == KZ_POINTS[i][1]) as pt:
            params = tp.model.ModelParams(delta=delta_c, g=g_f, r=r)
            (row,) = tp.quench.kz_sweep(g_f, [tau_q], params, n_max=n_max)
            pt.flag(not row["converged"],
                    "kz_sweep: point unconverged (dt-halving, leakage or n_max-doubling gate)")
            if row["converged"]:
                pt.output("e_r", row["e_r"], E_R)
                pt.require(row["e_r"] > 0, "residual energy must be positive")
                pt.require(row["norm_drift"] <= 1e-9, "norm drift above 1e-9")


def _collapse_point(tp, plan: dict, rec: Recorder) -> None:
    c1d = tp.collapse1d
    ModelParams = tp.model.ModelParams

    # criterion 09: the Delta = 3 ladder and the Delta = 0 empty box
    with rec.point("ladder/delta=3") as pt:
        ladder = c1d.bound_states(c1d.Collapse1DProblem(delta=3.0, L=3200.0, h=0.0125), k=7)
        pt.flag(not ladder.converged.all(), "bound_states: level misses the 0.5% refinement gate")
        pt.output("kappa4", ladder.binding_energies, KAPPA4)
        pt.output("parities", ladder.parities, EXACT)
        k4 = ladder.binding_energies
        pt.require(bool(np.all(k4 > 0) and np.all(np.diff(k4) < 0)),
                   "binding energies must be positive and descending")
    with rec.point("ladder/delta=0") as pt:
        empty = c1d.bound_states(c1d.Collapse1DProblem(delta=0.0, L=100.0, h=0.05), k=4)
        pt.output("bound_count", np.isfinite(empty.binding_energies).sum(), EXACT)
        pt.require(bool(np.isnan(empty.binding_energies).all()), "bound state found at Delta = 0")
    with rec.point("check/delta=0") as pt:
        report = c1d.collapse_hamiltonian_check(0.0, 8192)
        pt.output("spacings", report.spacings_by_n_max, BLOCK_LEVELS)
    with rec.point("check/delta=3") as pt:
        report = c1d.collapse_hamiltonian_check(3.0, 16384)
        rows = report.matched_even + report.matched_odd
        pt.output("block_levels", [row[0] for row in rows], BLOCK_LEVELS)
        pt.output("mapped_levels", [row[1] for row in rows], MAPPED)

    # criterion 06: gap opening at g = g_c
    for r in R_VALUES:
        g_c, delta_c = tp.model.critical_params(r)
        offsets, pinned = plan["offsets", r]
        deltas, gaps = [], []
        for i, (off, pin) in enumerate(zip(offsets, pinned)):
            with rec.point(f"gap/r={r}/{i}", bool(pin)) as pt:
                p = ModelParams(delta=delta_c - off, g=g_c, r=r)
                gap = abs(tp.ed.lowest_level(p, +1, 65536) - tp.ed.lowest_level(p, -1, 65536))
                half = abs(tp.ed.lowest_level(p, +1, 32768) - tp.ed.lowest_level(p, -1, 32768))
                pt.flag(abs(gap - half) > 0.02 * gap,
                        f"gap moves {abs(gap - half) / gap:.2%} between n_max = 2^15 and 2^16 "
                        "(2% truncation gate)")
                pt.output("gaps", [gap, half], GAP_FIXED_N)
                deltas.append(delta_c - off)
                gaps.append(gap)
        with rec.point(f"gap/r={r}/fit", bool(pinned.all())) as pt:
            fit = tp.analysis.fit_quadratic_gap(deltas, gaps, delta_c)
            pt.output("coefficient", fit.exponent, Tol("rel", 1e-5))
            pt.require(fit.r_squared > 0.999, "gap is not quadratic in the detuning (r^2 <= 0.999)")


PASSES = {
    "critical-sweep": _critical_sweep,
    "phase-space": _phase_space,
    "kz-quench": _kz_quench,
    "collapse-point": _collapse_point,
}


def run_pass(name: str, tp, plan: dict, rec: Recorder) -> None:
    PASSES[name](tp, plan, rec)
