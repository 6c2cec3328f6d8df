"""Command-line frontend.

Every subcommand maps onto one quantitative claim family: `spectrum`
(level diagrams), `gap-scan` / `observables` / `qfi` (critical
exponents), `wigner` (phase-space distributions), `quench` (residual
energy vs quench time), `collapse1d` and `gap-opening` (collapse-point
structure), and `fit` (standalone log-log regression on any CSV).

One table, COMMANDS, declares each subcommand's flags, input resolver and
runner; `--validate` runs the same resolver and stops before the run, printing
its diagnostics as JSON, flags or a config that fail to parse included.  The
resolvers compute nothing, save `quench --samples` without `--dt`, which solves
its start step's bound to check the sample count.

Runs are deterministic: data go to `<out>.csv` at full double precision,
fits to `<out>_fit.json`, and a manifest with every default materialized
to `<out>_manifest.json`, as strict JSON (a non-finite float is null);
`tpqrm --config <manifest>` reproduces the run bit for bit.  A config
value is parsed as its flag's command-line text (`--flag=value`,
`--flag v1 v2` for a list, a bare `--flag` for true), put ahead of the
command line, which wins; each flag checks its own value in its type=.
Exit codes: 0 success, 1 configuration or usage error, as one line on
stderr (and --validate's payload), 2 convergence failure.  Each runner
ends in _write, which writes its files and turns the run's outcome into
exit code 0 or 2.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, replace
from functools import partial
from importlib.metadata import PackageNotFoundError
from importlib.metadata import version as _pkg_version
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, aa, analysis, collapse1d, ed, quench
from .errors import CollapseMappingError, ConvergenceError
from .model import ModelParams, SectorSpec, critical_params

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONVERGENCE = 2

_WIGNER_NORM_TOL = 1e-3  # |integral of W - 1| a grid must reach to integrate the state


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    return f"{v:.17g}"


def _floats(items: list[str], where: str) -> list[float]:
    """Each item as a float; a bad one raises ValueError naming where it came from, quoted."""
    values = []
    for item in items:
        try:
            values.append(float(item))
        except ValueError:
            raise ValueError(f"{where}: {item.strip()!r} is not a number") from None
    return values


def parse_gf(text: str) -> float:
    """Fraction of g_c; '1-1e-6' means 1 - 1e-6."""
    text = text.strip()
    if text.startswith("1-"):
        return 1.0 - _floats([text[2:]], "--gf")[0]
    return _floats([text], "--gf")[0]


def _checked(convert: Callable[[str], float], ok: Callable[[float], bool], rule: str):
    """argparse type=: the text through convert, rejected unless ok(value)."""
    def parse(text: str):
        if not ok(value := convert(text)):
            raise argparse.ArgumentTypeError(f"{value} {rule}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid float value: 'abc'"
    return parse


_positive = _checked(float, lambda value: 0.0 < value < math.inf, "must be finite and positive")


def _count(least: int):
    """argparse type=: an integer no less than least."""
    return _checked(int, lambda value: value >= least, f"must be >= {least}")


# -- flags: (flag, add_argument keywords), shared where subcommands share them --
_RUN = (("--config", dict(default=None, help="JSON config; CLI flags override")),
        ("--out", dict(default=None, help="output path prefix")),
        ("--validate", dict(action="store_true", help="dry-run: resolve the inputs, then stop")))
_R = ("--r", dict(type=float, default=0.6, help="anisotropy in [0, 1]"))
_DELTA = ("--delta", dict(default="critical", help="qubit frequency, or 'critical': Delta_c(r)"))
_N_MAX = ("--n-max", dict(type=_count(2), default=256, help="starting truncation"))
_TOL = ("--tol", dict(type=_positive, default=1e-10, help="per-level convergence target"))
_FIT = ("--fit", dict(action="store_true", help="also fit log-log exponents"))
_GRID = (_R, _DELTA,
         ("--x-range", dict(type=float, nargs=2, default=[1.5, 3.0], metavar=("XMIN", "XMAX"),
                            help="range in x = -log10(1 - g/gc)")),
         ("--points", dict(type=_count(1), default=7, help="grid points in x")))


def _delta(text: str, r: float) -> float:
    """--delta: a number, or 'critical' for Delta_c(r)."""
    return critical_params(r)[1] if text == "critical" else _floats([text], "--delta")[0]


def _params(ns, g: float | None = None, g_over_gc: float | None = None) -> ModelParams:
    """ModelParams from --delta and --r at exactly one of g and g/g_c."""
    delta, g_c = _delta(ns.delta, ns.r), critical_params(ns.r)[0]
    if (g is None) == (g_over_gc is None):
        raise ValueError("exactly one of --g and --g-over-gc is required")
    return ModelParams(delta=delta, g=g_over_gc * g_c if g is None else g, r=ns.r)


# -- resolvers: flags -> the run's inputs, raising ValueError on bad input --
def _resolve_grid(ns, fit_cols: tuple[str, ...] = ()) -> dict:
    """The model at g = 0, the coupling grid, and the columns --fit fits against 1 - g/g_c."""
    fit_cols = fit_cols if fit_cols and ns.fit else ()
    if fit_cols and ns.points < analysis.MIN_FIT_POINTS:
        raise ValueError(f"--fit needs at least {analysis.MIN_FIT_POINTS} points, got {ns.points}")
    grid = analysis.make_grid(ns.x_range[0], ns.x_range[1], ns.points, ns.r)
    return {"model": _params(ns, g=0.0), "grid": grid, "fit_cols": fit_cols}


def _resolve_quench(ns) -> dict:
    model = _params(ns, g_over_gc=parse_gf(ns.gf))
    if ns.tau_list:
        taus = _floats(ns.tau_list.split(","), "--tau-list")
    elif ns.tau_range:
        taus = list(np.logspace(math.log10(ns.tau_range[0]), math.log10(ns.tau_range[1]),
                                ns.tau_points))
    else:
        raise ValueError("quench needs --tau-range or --tau-list")
    if ns.fit and len(taus) < analysis.MIN_FIT_POINTS:
        raise ValueError(f"--fit needs at least {analysis.MIN_FIT_POINTS} points, got {len(taus)}")
    if ns.samples and len(taus) > 1:
        raise ValueError(f"--samples records the trajectory of a single quench time; "
                         f"got {len(taus)} quench times")
    protocols = [quench.QuenchProtocol(g_f=model.g, tau_q=tau, r=model.r, delta=model.delta,
                                       n_max=ns.n_max, dt=ns.dt) for tau in taus]
    if ns.samples:  # one quench time: its start step, solved here, is the run's
        protocols[0] = replace(protocols[0], dt=protocols[0].start_dt())
    protocols[0].check_samples(ns.samples)
    return {"model": model, "protocols": protocols, "n_samples": ns.samples}


def _resolve_wigner(ns) -> dict:
    ed.check_wigner_lattice(ns.half_width, ns.grid_points, ("--half-width", "--grid-points"))
    return {"model": _params(ns, g=ns.g, g_over_gc=ns.g_over_gc)}


def _resolve_collapse1d(ns) -> dict:
    delta = _delta(ns.delta, 1.0)  # the isotropic collapse point: 'critical' is Delta_c = 0
    model = collapse1d.Collapse1DProblem(delta=delta, L=ns.L, h=ns.h)
    if ns.check_hc:
        collapse1d.check_collapse_inputs(delta, ns.n_max)
    return {"model": model}


def _resolve_fit(ns) -> dict:
    with open(ns.input, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [_floats(line.split(","), f"{ns.input} line {number}")
                for number, line in enumerate(fh, start=2) if line.strip()]
    for col in (ns.xcol, ns.ycol):
        if col not in header:
            raise ValueError(f"column {col!r} not in {ns.input} (has {header})")
    if not rows:
        raise ValueError(f"{ns.input} has no data rows")
    if (short := min(len(row) for row in rows)) < len(header):
        raise ValueError(f"{ns.input} has a row of {short} fields under a header of {len(header)}")
    data = np.array([row[:len(header)] for row in rows])
    u, y = data[:, header.index(ns.xcol)], data[:, header.index(ns.ycol)]
    window = tuple(ns.window) if ns.window else None
    analysis.powerlaw_points(u, y, window)  # the fit's own checks, before the run
    return {"u": u, "y": y, "window": window}


def _resolve_gap_opening(ns) -> dict:
    """The |Delta - Delta_c| offsets, each with its model at g = g_c."""
    g_c, delta_c = critical_params(ns.r)
    lo, hi = ns.window
    if not 0.0 < lo < hi:
        raise ValueError("gap-opening window needs 0 < DLO < DHI")
    offsets = np.linspace(lo, hi, ns.points)
    return {"delta_c": delta_c,
            "points": [(off, ModelParams(delta=delta_c - off, g=g_c, r=ns.r)) for off in offsets]}


def _manifest(ns) -> dict:
    out = {k: v for k, v in sorted(vars(ns).items()) if k != "validate"}
    try:
        out["package_version"] = _pkg_version("tpqrm")
    except PackageNotFoundError:  # running from a source tree, not installed
        out["package_version"] = __version__
    return out


def _write(ns, ok: bool, tables: dict[str, tuple[list[str], list[list]]], **payloads) -> int:
    """Write <out><suffix>.csv per table, the manifest and <out>_<name>.json per payload.

    tables maps a file suffix ("" for <out>.csv) to (header, rows).
    Returns the run's exit code: EXIT_OK if ok, else EXIT_CONVERGENCE.
    """
    out = ns.out if ns.out else ns.command
    for suffix, (header, rows) in tables.items():
        with open(f"{out}{suffix}.csv", "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    for name, payload in {"manifest": _manifest(ns), **payloads}.items():
        with open(f"{out}_{name}.json", "w", encoding="utf-8") as fh:
            fh.write(_json(payload) + "\n")
    return EXIT_OK if ok else EXIT_CONVERGENCE


def _json(payload) -> str:
    """payload as strict JSON (RFC 8259): a non-finite float is written as null."""
    plain = json.loads(json.dumps(payload), parse_constant=lambda _: None)  # NaN, Infinity
    return json.dumps(plain, indent=2, sort_keys=True, allow_nan=False)


def _converged_fit(fit, points: list[tuple[float, float]], key: str | None = None) -> dict:
    """fit(x, y) over the converged (x, y) points, under key if given; an error below 5 points."""
    if len(points) < analysis.MIN_FIT_POINTS:
        return {"error": f"fewer than {analysis.MIN_FIT_POINTS} converged points"}
    result = fit(*zip(*points)).to_dict()
    return {key: result} if key else result


def _sweep(ns, model, grid, fit_cols, header: list[str], point_rows) -> int:
    """Coupling-grid runner shared by spectrum, gap-scan, observables and qfi.

    point_rows(params) gives one grid point's rows without the leading
    (g/g_c, x) columns.  A point whose solve raises ConvergenceError is one
    row of NaN with converged false, and its message goes to stderr.  Each
    of fit_cols is fitted against 1 - g/g_c over the rows whose converged
    column holds, as _converged_fit fits; a false one in any row makes the
    exit code 2.
    """
    ok = header.index("converged")

    def rows_at(x: float, g: float) -> list[list]:
        try:
            return point_rows(replace(model, g=g))
        except ConvergenceError as exc:
            print(f"convergence failure at x={x:.17g}: {exc}", file=sys.stderr)
            row = [math.nan] * (len(header) - 2)
            row[ok - 2] = False
            return [row]

    rows = [[g / model.g_c, x, *row]
            for x, g in zip(grid.x_values, grid.g_values) for row in rows_at(x, float(g))]
    good = [row for row in rows if row[ok]]
    fits = {name: _converged_fit(analysis.fit_powerlaw,
                                 [(1.0 - row[0], row[header.index(name)]) for row in good])
            for name in fit_cols}
    return _write(ns, len(good) == len(rows), {"": (header, rows)},
                  **({"fit": fits} if fit_cols else {}))


def run_spectrum(ns, model, grid, fit_cols) -> int:
    def point_rows(params):
        spec = ed.full_spectrum(params, n_max=ns.n_max, tol=ns.tol, k=ns.levels)
        return [
            [int(index), int(parity), energy, conv,
             aa.aa_energy(int(index), int(parity), params).energy]
            for energy, parity, index, conv in zip(
                spec.energies, spec.parities, spec.indices, spec.converged
            )
        ]

    header = ["g_over_gc", "x", "level_index", "parity", "energy_ed", "converged", "energy_aa"]
    return _sweep(ns, model, grid, fit_cols, header, point_rows)


def run_gap_scan(ns, model, grid, fit_cols) -> int:
    def point_rows(params):
        minus = ed.ed_spectrum(params, SectorSpec(0.25, -1), ns.n_max, ns.tol, k=2)
        plus = ed.ed_spectrum(params, SectorSpec(0.25, +1), ns.n_max, ns.tol, k=2)
        eps_sp = float(minus.energies[1] - minus.energies[0])
        eps_dp = abs(float(plus.energies[0] - minus.energies[0]))
        return [[eps_sp, eps_dp, bool(minus.converged.all() and plus.converged[0])]]

    header = ["g_over_gc", "x", "eps_sp", "eps_dp", "converged"]
    return _sweep(ns, model, grid, fit_cols, header, point_rows)


def run_observables(ns, model, grid, fit_cols) -> int:
    def point_rows(params):
        obs = ed.ed_ground_observables(params, ns.n_max, ns.tol)
        ref = aa.aa_observables(params)
        return [[obs.photon, obs.sigma_x, obs.dx, obs.dp, ref.photon, ref.sigma_x, ref.dx, True]]

    header = ["g_over_gc", "x", "photon", "sigma_x", "dx", "dp",
              "photon_aa", "sigma_x_aa", "dx_aa", "converged"]
    return _sweep(ns, model, grid, fit_cols, header, point_rows)


def run_qfi(ns, model, grid, fit_cols) -> int:
    def point_rows(params):
        row = [ed.qfi_spectral(params, n_max=ns.n_max), aa.aa_qfi_leading(params)]
        if ns.oracle:
            row.append(ed.qfi_fidelity_oracle(params, n_max=ns.n_max))
        return [row + [True]]

    header = ["g_over_gc", "x", "f_q", "f_q_aa", *(["f_q_fidelity"] if ns.oracle else []),
              "converged"]
    return _sweep(ns, model, grid, fit_cols, header, point_rows)


def run_wigner(ns, model: ModelParams) -> int:
    grid = ed.wigner_grid(model, n_max=ns.n_max, half_width=ns.half_width, points=ns.grid_points,
                          conditioning=ns.conditioning, tol=ns.tol)
    rows = [[x, p, grid.values[i, j]] for i, p in enumerate(grid.p_axis)
            for j, x in enumerate(grid.x_axis)]
    ok = abs(grid.normalization - 1.0) <= _WIGNER_NORM_TOL
    if not ok:
        print(f"convergence failure: Wigner normalization {grid.normalization:.6g} is not within "
              f"{_WIGNER_NORM_TOL:.0e} of 1; raise --grid-points or --half-width", file=sys.stderr)
    return _write(ns, ok, {"": (["x", "p", "w"], rows)},
                  report={"normalization": grid.normalization})


def run_quench(ns, model: ModelParams, protocols: list, n_samples: int) -> int:
    # one quench time: the run that yields E_r also records the trajectory
    table = quench.kz_sweep(model.g, [p.tau_q for p in protocols], model,
                            n_max=protocols[0].n_max, dt=protocols[0].dt, n_samples=n_samples)
    cols = ["g_f_over_gc", "tau_q", "e_r", "norm_drift", "n_max", "dt", "converged"]
    rows = []
    for row in table:
        pred = quench.kz_predict(row["tau_q"], model) if row["tau_q"] > 1 else None
        preds = [pred.e_r_adiabatic, pred.e_r_kz] if pred else [math.nan, math.nan]
        rows.append([row[c] for c in cols] + preds)
    tables = {"": (cols + ["e_r_adiabatic_pred", "e_r_kz_pred"], rows)}
    if n_samples and table[0]["samples"] is not None:
        tables["_trajectory"] = (["t", "g", "energy"], [list(s) for s in table[0]["samples"]])
    good = [(row["tau_q"], row["e_r"]) for row in table if row["converged"]]
    fit = {"fit": _converged_fit(analysis.fit_powerlaw, good, "e_r_vs_tau")} if ns.fit else {}
    return _write(ns, len(good) == len(table), tables, **fit)


def run_collapse1d(ns, model: collapse1d.Collapse1DProblem) -> int:
    ladder = collapse1d.bound_states(model, k=ns.k)
    rows = []
    for n in range(ns.k):
        ratio = ladder.ratios[n] if n < len(ladder.ratios) else math.nan
        rows.append([n, ladder.binding_energies[n], ratio, bool(ladder.converged[n])])

    report = {"ratio_plateau": ladder.ratio_plateau, "rows": ladder.rows,
              "refinement": ladder.refinement.tolist(),
              "bound_states": int(ladder.converged.sum())}
    ok = True
    if not ladder.converged.any():
        if model.delta > 1.0:  # the tail binds a whole tower: a level must converge
            ok = False
        else:
            report["reason"] = (f"no level passes the refinement gate at delta={model.delta}; "
                                "the inverse-square tail binds a tower only for delta > 1")
    if ns.check_hc:  # before any file is written
        try:
            check = collapse1d.collapse_hamiltonian_check(model.delta, n_max=ns.n_max)
            report["hamiltonian_check"] = asdict(check)
        except CollapseMappingError as exc:
            report["hamiltonian_check"] = {"error": str(exc), **asdict(exc.report)}
            ok = False
    return _write(ns, ok, {"": (["n", "kappa4", "ratio", "converged"], rows)}, report=report)


def run_fit(ns, u: np.ndarray, y: np.ndarray, window: tuple[float, float] | None) -> int:
    fit = analysis.fit_powerlaw(u, y, window=window).to_dict()
    print(_json(fit))
    return _write(ns, True, {}, fit=fit)


def run_gap_opening(ns, delta_c: float, points: list) -> int:
    rows = []
    for off, params in points:
        gap, n_max, conv = ed.collapse_point_gap(params, ns.n_max_final, 4 * ns.n_max_final)
        rows.append([params.delta, off * off, gap, conv, n_max])
    good = [(r[0], r[2]) for r in rows if r[3]]
    fit = _converged_fit(partial(analysis.fit_quadratic_gap, delta_c=delta_c), good)
    header = ["delta", "delta_sq_offset", "eps_dp", "converged", "n_max"]
    return _write(ns, len(good) == len(rows), {"": (header, rows)}, fit=fit)


class Command(NamedTuple):
    """One subcommand: help text, flags, resolve(ns) -> inputs, run(ns, **inputs) -> exit code."""
    help: str
    flags: tuple
    resolve: Callable[[argparse.Namespace], dict]
    run: Callable[..., int]


COMMANDS = {
    "spectrum": Command("level diagram vs coupling, both parities, AA alongside", _RUN + _GRID + (
        _N_MAX, _TOL, ("--levels", dict(type=_count(1), default=8, help="levels per parity block")),
    ), _resolve_grid, run_spectrum),
    "gap-scan": Command("soft-mode and parity gaps vs coupling",
                        _RUN + _GRID + (_N_MAX, _TOL, _FIT),
                        partial(_resolve_grid, fit_cols=("eps_sp", "eps_dp")), run_gap_scan),
    "observables": Command(
        "photon number, polarization, quadratures vs coupling", _RUN + _GRID + (_N_MAX, _TOL, _FIT),
        partial(_resolve_grid, fit_cols=("photon", "sigma_x", "dx", "dp")), run_observables),
    "qfi": Command("quantum Fisher information vs coupling", _RUN + _GRID + (
        _N_MAX,  # F_Q's first rung is a block of n_max rows
        _FIT,
        ("--oracle", dict(action="store_true",
                          help="add the fidelity-susceptibility cross check column")),
    ), partial(_resolve_grid, fit_cols=("f_q",)), run_qfi),
    "wigner": Command("Wigner distribution of the ground-state photon mode", _RUN + (
        _R, _DELTA, _N_MAX, _TOL,
        ("--g", dict(type=float, default=None, help="absolute coupling")),
        ("--g-over-gc", dict(type=float, default=None, help="coupling in units of g_c")),
        ("--conditioning", dict(choices=["reduced", *ed.QUBIT_COMPONENTS], default="reduced")),
        ("--half-width", dict(type=_positive, default=None)),
        ("--grid-points", dict(type=_count(3), default=161)),
    ), _resolve_wigner, run_wigner),
    "quench": Command("linear quench residual energy vs quench time", _RUN + (
        _R, _DELTA, _FIT,
        ("--n-max", dict(_N_MAX[1],
                         help="the propagation basis climbs from min(n_max, 64) rows to at most "
                              "4 n_max until it stops leaking; the CSV's n_max is the basis used")),
        ("--gf", dict(default="0.99", help="final coupling over g_c; accepts '1-1e-6'")),
        ("--tau-range", dict(type=_positive, nargs=2, default=None, metavar=("TMIN", "TMAX"),
                             help="log-spaced quench-time range")),
        ("--tau-points", dict(type=_count(1), default=6)),
        ("--tau-list", dict(default=None, help="comma-separated quench times")),
        ("--samples", dict(type=_count(0), default=0,
                           help="trajectory samples (single-tau runs); at most the start step's "
                                "step count, tau_q / dt")),
        ("--dt", dict(type=float, default=None,
                      help="start step override (the halving check still applies); by default "
                           "the Pade phase bound on the soft-mode gap at g_f where the ramp is "
                           "adiabatic there, min(1, tau_q/100) where it is impulsive, or the "
                           "bound on 2 + Delta where the abrupt start can move E_r")),
    ), _resolve_quench, run_quench),
    "collapse1d": Command("collapse-point 1D bound-state ladder", _RUN + (
        ("--delta", dict(default="critical",
                         help="qubit frequency, or 'critical' for the isotropic Delta_c = 0")),
        ("--n-max", dict(_N_MAX[1], default=16384,
                         help="ceiling of --check-hc's truncation ladder")),
        ("--L", dict(type=float, default=400.0, help="half width of the Dirichlet box")),
        ("--h", dict(type=float, default=0.05,
                     help="x-spacing at the origin of the sinh-mapped grid")),
        ("--k", dict(type=_count(1), default=6, help="levels requested")),
        ("--check-hc", dict(action="store_true",
                            help="cross-check against the quadrature-form Hamiltonian")),
    ), _resolve_collapse1d, run_collapse1d),
    "fit": Command("log-log power-law fit on columns of an existing CSV", _RUN + (
        ("--input", dict(required=True)), ("--xcol", dict(required=True)),
        ("--ycol", dict(required=True)), ("--window", dict(type=float, nargs=2, default=None)),
    ), _resolve_fit, run_fit),
    "gap-opening": Command("parity gap at g = g_c against (Delta - Delta_c)^2", _RUN + (
        _R,
        ("--window", dict(type=float, nargs=2, default=[0.06, 0.11], metavar=("DLO", "DHI"),
                          help="|Delta - Delta_c| fit window")),
        ("--points", dict(type=_count(1), default=6)),
        ("--n-max-final", dict(type=_count(4), default=65536,
                               help="first truncation; doubles up to 4x until the 2%% gate "
                                    "against n_max/2 holds")),
    ), _resolve_gap_opening, run_gap_opening),
}


class _Parser(argparse.ArgumentParser):
    """Errors raise ValueError, for main to report as any other bad input, and no prefix
    matching: a removed flag such as gap-opening's --n-max must not stand for --n-max-final."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        # -1e-05 and -inf are values, for the flag's type= to check, not flags
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    """argparse view of COMMANDS."""
    parser = _Parser(prog="tpqrm", description="Anisotropic two-photon Rabi model: spectra, "
                                               "scaling, quenches, collapse.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, kwargs in command.flags:
            p.add_argument(flag, **kwargs)
    return parser


def _load_config(argv: list[str]) -> argparse.Namespace:
    """argv parsed in one pass, after a --config file's keys as their flags' command-line words.

    The config's own checks are the by-key ones argparse cannot make.
    """
    probe = _Parser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return build_parser().parse_args(argv)
    with open(known.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    command = cfg.pop("command", None)
    if argv and argv[0] in COMMANDS:
        command, argv = argv[0], argv[1:]
    if not isinstance(command, str) or command not in COMMANDS:
        raise ValueError("no subcommand given and none found in the config")
    cfg = {k.replace("-", "_"): v for k, v in cfg.items() if k != "package_version"}
    if "validate" in cfg:  # a manifest never writes it; a dry run is asked for on the command line
        raise ValueError("config key 'validate' is not read from a config; pass --validate "
                         "on the command line")
    flags = {flag[2:].replace("-", "_"): (flag, kwargs) for flag, kwargs in COMMANDS[command].flags}
    if unknown := set(cfg) - set(flags):
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    words = [command]
    for key, value in cfg.items():
        flag, kwargs = flags[key]
        if "action" in kwargs:  # a switch: the bare flag for true, nothing for false
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be true or false; got {value!r}")
            words += [flag] * value
        elif value is None:  # a manifest writes null only for a flag whose default is null
            if kwargs.get("default") is not None:
                raise ValueError(f"config key {key!r} cannot be null: {flag} has a default")
        elif "type" not in kwargs and not isinstance(value, str):
            raise ValueError(f"config key {key!r} must be a string, as on the command line; "
                             f"got {value!r}")
        elif "nargs" in kwargs and isinstance(value, list):
            if len(value) != kwargs["nargs"]:  # argparse would read the rest as stray words
                raise ValueError(f"config key {key!r} takes {kwargs['nargs']} values; "
                                 f"got {len(value)}")
            words += [flag, *map(str, value)]
        else:
            words.append(f"{flag}={value}")
    return build_parser().parse_args(words + argv)


def _validate(ns, inputs: dict) -> int:
    """--validate once the inputs resolve: print diagnostics and manifest, run nothing.

    The resolvers compute nothing, save quench's start step under --samples without --dt.
    """
    diagnostics = []
    if getattr(ns, "delta", None) == "critical":
        diagnostics.append(f"delta 'critical' resolves to {inputs['model'].delta:.17g}")
    _print_payload(diagnostics, _manifest(ns))
    return EXIT_OK


def _print_payload(diagnostics: list[str], manifest: dict | None) -> None:
    """--validate's stdout: the diagnostics and the manifest (None when the flags fail to parse)."""
    print(_json({"diagnostics": diagnostics, "manifest": manifest}))


def main(argv: list[str] | None = None) -> int:
    argv, ns = list(sys.argv[1:] if argv is None else argv), None
    try:
        ns = _load_config(argv)
        command = COMMANDS[ns.command]
        inputs = command.resolve(ns)
        return _validate(ns, inputs) if ns.validate else command.run(ns, **inputs)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        if "--validate" in argv:
            _print_payload([f"error: {exc}"], None if ns is None else _manifest(ns))
        return EXIT_CONFIG
    except (ConvergenceError, CollapseMappingError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
