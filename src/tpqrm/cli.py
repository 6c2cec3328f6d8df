"""Command-line frontend.

Every subcommand maps onto one quantitative claim family: `spectrum`
(level diagrams), `gap-scan` / `observables` / `qfi` (critical
exponents), `wigner` (phase-space distributions), `quench` (residual
energy vs quench time), `collapse1d` and `gap-opening` (collapse-point
structure), and `fit` (standalone log-log regression on any CSV).

One table, COMMANDS, declares each subcommand's flags, input resolver and
runner; `--validate` runs the same resolver and stops before any computation.

Runs are deterministic: data go to `<out>.csv` at full double precision,
fits to `<out>_fit.json`, and a manifest with every default materialized
to `<out>_manifest.json`; `tpqrm --config <manifest>` reproduces the run
bit for bit.  Exit codes: 0 success, 1 configuration or usage error
(unknown subcommand or flag, malformed value), 2 convergence failure.
TPQRM_THREADS (default 1) fans sweep points out across worker threads;
output order never depends on completion order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from functools import partial
from importlib.metadata import PackageNotFoundError
from importlib.metadata import version as _pkg_version
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, aa, analysis, collapse1d, ed, quench
from .errors import CollapseMappingError, ConvergenceError
from .model import ModelParams, SectorSpec, check_count, critical_params, params_from_dict

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONVERGENCE = 2


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    return f"{v:.17g}"


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _n_threads() -> int:
    try:
        return max(1, int(os.environ.get("TPQRM_THREADS", "1")))
    except ValueError:
        return 1


def _map_points(fn, items):
    n = _n_threads()
    if n > 1:
        with ThreadPoolExecutor(max_workers=n) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def parse_gf(text: str) -> float:
    """Fraction of g_c; '1-1e-6' means 1 - 1e-6."""
    text = text.strip()
    if text.startswith("1-"):
        return 1.0 - float(text[2:])
    return float(text)


# -- flags: (flag, add_argument keywords), shared where subcommands share them --
_RUN = (("--config", dict(default=None, help="JSON config; CLI flags override")),
        ("--out", dict(default=None, help="output path prefix")),
        ("--validate", dict(action="store_true", help="dry-run: resolve the inputs, then stop")))
_R = ("--r", dict(type=float, default=0.6, help="anisotropy in [0, 1]"))
_DELTA = ("--delta", dict(default="critical", help="qubit frequency, or 'critical': Delta_c(r)"))
_N_MAX = ("--n-max", dict(type=int, default=256, help="starting truncation"))
_TOL = ("--tol", dict(type=float, default=1e-10, help="per-level convergence target"))
_FIT = ("--fit", dict(action="store_true", help="also fit log-log exponents"))
_GRID = (_R, _DELTA, _N_MAX,
         ("--x-range", dict(type=float, nargs=2, default=[1.5, 3.0], metavar=("XMIN", "XMAX"),
                            help="range in x = -log10(1 - g/gc)")),
         ("--points", dict(type=int, default=7, help="grid points in x")))


def _params(ns, **coupling) -> ModelParams:
    """ModelParams from --delta and --r plus the coupling keys that are set."""
    cfg = {"delta": ns.delta, "r": ns.r, **coupling}
    return params_from_dict({k: v for k, v in cfg.items() if v is not None})


# -- resolvers: flags -> the run's inputs, raising ValueError on bad input --
# The least value of each count flag, as the library call it feeds demands.
# argparse's type= never sees --config values, so _resolve checks these.
_LEAST_COUNT = {"points": 1, "levels": 1, "k_states": 1, "grid_points": 3, "tau_points": 1,
                "samples": 0, "k": 1, "n_max_final": 4}


def _resolve(ns, command: Command) -> dict:
    """The subcommand's inputs from its resolver, after each count flag it declares is checked."""
    for name, least in _LEAST_COUNT.items():
        if name in vars(ns):
            check_count("--" + name.replace("_", "-"), getattr(ns, name), least)
    return command.resolve(ns)


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
        taus = [float(t) for t in ns.tau_list.split(",")]
    elif ns.tau_range:
        taus = list(np.logspace(math.log10(ns.tau_range[0]), math.log10(ns.tau_range[1]),
                                ns.tau_points))
    else:
        raise ValueError("quench needs --tau-range or --tau-list")
    if ns.fit and len(taus) < analysis.MIN_FIT_POINTS:
        raise ValueError(f"--fit needs at least {analysis.MIN_FIT_POINTS} points, got {len(taus)}")
    protocols = [quench.QuenchProtocol(g_f=model.g, tau_q=tau, r=model.r, delta=model.delta,
                                       n_max=ns.n_max, dt=ns.dt) for tau in taus]
    return {"model": model, "protocols": protocols}


def _resolve_collapse1d(ns) -> dict:
    # the isotropic collapse point has Delta_c = 0, so 'critical' means 0 here
    delta = 0.0 if ns.delta == "critical" else float(ns.delta)
    return {"model": collapse1d.Collapse1DProblem(delta=delta, L=ns.L, h=ns.h)}


def _resolve_fit(ns) -> dict:
    with open(ns.input, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.array([[float(v) for v in line.split(",")] for line in fh if line.strip()])
    for col in (ns.xcol, ns.ycol):
        if col not in header:
            raise ValueError(f"column {col!r} not in {ns.input} (has {header})")
    return {"u": data[:, header.index(ns.xcol)], "y": data[:, header.index(ns.ycol)]}


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


def _write(ns, header: list[str] | None, rows: list[list], **extra_json) -> str:
    """Write <out>.csv (unless header is None), the manifest and <out>_<name>.json per extra."""
    out = ns.out if ns.out else ns.command
    if header is not None:
        write_csv(f"{out}.csv", header, rows)
    write_json(f"{out}_manifest.json", _manifest(ns))
    for name, payload in extra_json.items():
        write_json(f"{out}_{name}.json", payload)
    return out


def _sweep(ns, model, grid, fit_cols, header: list[str], point_rows, ok_col: str | None) -> int:
    """Coupling-grid runner shared by spectrum, gap-scan, observables and qfi.

    point_rows(params) gives one grid point's rows without the leading
    (g/g_c, x) columns.  Each of fit_cols is fitted against 1 - g/g_c;
    a falsy ok_col value in any row makes the exit code 2.
    """
    def one(point):
        x, g = point
        return [[g / model.g_c, x, *row] for row in point_rows(replace(model, g=float(g)))]

    points = list(zip(grid.x_values, grid.g_values))
    rows = [row for chunk in _map_points(one, points) for row in chunk]
    out = _write(ns, header, rows)
    if fit_cols:
        u = np.array([1.0 - row[0] for row in rows])
        write_json(f"{out}_fit.json", {
            name: analysis.fit_powerlaw(u, [row[header.index(name)] for row in rows]).to_dict()
            for name in fit_cols
        })
    ok = ok_col is None or all(bool(row[header.index(ok_col)]) for row in rows)
    return EXIT_OK if ok else EXIT_CONVERGENCE


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
    return _sweep(ns, model, grid, fit_cols, header, point_rows, "converged")


def run_gap_scan(ns, model, grid, fit_cols) -> int:
    def point_rows(params):
        minus = ed.ed_spectrum(params, SectorSpec(0.25, -1), ns.n_max, ns.tol, k=2)
        plus = ed.ed_spectrum(params, SectorSpec(0.25, +1), ns.n_max, ns.tol, k=2)
        eps_sp = float(minus.energies[1] - minus.energies[0])
        eps_dp = abs(float(plus.energies[0] - minus.energies[0]))
        return [[eps_sp, eps_dp, bool(minus.converged.all() and plus.converged[0])]]

    header = ["g_over_gc", "x", "eps_sp", "eps_dp", "converged"]
    return _sweep(ns, model, grid, fit_cols, header, point_rows, "converged")


def run_observables(ns, model, grid, fit_cols) -> int:
    def point_rows(params):
        obs = ed.ed_ground_observables(params, ns.n_max, ns.tol)
        ref = aa.aa_observables(params)
        return [[obs.photon, obs.sigma_x, obs.dx, obs.dp, ref.photon, ref.sigma_x, ref.dx]]

    header = ["g_over_gc", "x", "photon", "sigma_x", "dx", "dp",
              "photon_aa", "sigma_x_aa", "dx_aa"]
    return _sweep(ns, model, grid, fit_cols, header, point_rows, None)


def run_qfi(ns, model, grid, fit_cols) -> int:
    def point_rows(params):
        row = [ed.qfi_spectral(params, n_max=ns.n_max, k_states=ns.k_states),
               aa.aa_qfi_leading(params)]
        if ns.oracle:
            row.append(ed.qfi_fidelity_oracle(params, n_max=ns.n_max))
        return [row]

    header = ["g_over_gc", "x", "f_q", "f_q_aa"] + (["f_q_fidelity"] if ns.oracle else [])
    return _sweep(ns, model, grid, fit_cols, header, point_rows, None)


def run_wigner(ns, model: ModelParams) -> int:
    grid = ed.wigner_grid(model, n_max=ns.n_max, half_width=ns.half_width, points=ns.grid_points,
                          conditioning=ns.conditioning, tol=ns.tol)
    rows = [[x, p, grid.values[i, j]] for i, p in enumerate(grid.p_axis)
            for j, x in enumerate(grid.x_axis)]
    _write(ns, ["x", "p", "w"], rows, report={"normalization": grid.normalization})
    return EXIT_OK


def run_quench(ns, model: ModelParams, protocols: list) -> int:
    # one quench time: the run that yields E_r also records the trajectory
    n_samples = ns.samples if len(protocols) == 1 else 0
    table = _map_points(
        lambda p: quench.kz_sweep(p.g_f, [p.tau_q], model, n_max=p.n_max, dt=p.dt,
                                  n_samples=n_samples)[0],
        protocols,
    )
    cols = ["g_f_over_gc", "tau_q", "e_r", "norm_drift", "n_max", "dt", "converged"]
    rows = []
    for row in table:
        pred = quench.kz_predict(row["tau_q"], model) if row["tau_q"] > 1 else None
        preds = [pred.e_r_adiabatic, pred.e_r_kz] if pred else [math.nan, math.nan]
        rows.append([row[c] for c in cols] + preds)
    out = _write(ns, cols + ["e_r_adiabatic_pred", "e_r_kz_pred"], rows)

    good = [row for row in table if row["converged"]]
    if ns.fit:
        if len(good) >= analysis.MIN_FIT_POINTS:
            fit = analysis.fit_powerlaw([r["tau_q"] for r in good], [r["e_r"] for r in good])
            write_json(f"{out}_fit.json", {"e_r_vs_tau": fit.to_dict()})
        else:
            write_json(f"{out}_fit.json",
                       {"error": f"fewer than {analysis.MIN_FIT_POINTS} converged points"})

    if n_samples and table[0]["samples"] is not None:
        write_csv(f"{out}_trajectory.csv", ["t", "g", "energy", "ground_overlap"],
                  [list(s) for s in table[0]["samples"]])
    return EXIT_OK if len(good) == len(table) else EXIT_CONVERGENCE


def run_collapse1d(ns, model: collapse1d.Collapse1DProblem) -> int:
    ladder = collapse1d.bound_states(model, k=ns.k)
    rows = []
    for n in range(ns.k):
        ratio = ladder.ratios[n] if n < len(ladder.ratios) else math.nan
        rows.append([n, ladder.binding_energies[n], ratio, bool(ladder.converged[n])])
    out = _write(ns, ["n", "kappa4", "ratio", "converged"], rows)

    report = {"ratio_plateau": ladder.ratio_plateau}
    status = EXIT_OK
    if ns.check_hc:
        try:
            check = collapse1d.collapse_hamiltonian_check(model.delta, n_max=ns.n_max)
            report["hamiltonian_check"] = asdict(check)
        except CollapseMappingError as exc:
            report["hamiltonian_check"] = {"error": str(exc)}
            status = EXIT_CONVERGENCE
    write_json(f"{out}_report.json", report)
    if not ladder.converged.any():
        status = EXIT_CONVERGENCE
    return status


def run_fit(ns, u: np.ndarray, y: np.ndarray) -> int:
    fit = analysis.fit_powerlaw(u, y, window=tuple(ns.window) if ns.window else None)
    _write(ns, None, [], fit=fit.to_dict())
    print(json.dumps(fit.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def run_gap_opening(ns, delta_c: float, points: list) -> int:
    def one(point):
        off, params = point
        gap, n_max, conv = ed.collapse_point_gap(params, ns.n_max_final, 4 * ns.n_max_final)
        return [params.delta, off * off, gap, conv, n_max]

    rows = _map_points(one, points)
    good = [r for r in rows if r[3]]
    fit = {"error": f"fewer than {analysis.MIN_FIT_POINTS} converged points"}
    if len(good) >= analysis.MIN_FIT_POINTS:
        deltas, gaps = [r[0] for r in good], [r[2] for r in good]
        fit = analysis.fit_quadratic_gap(deltas, gaps, delta_c).to_dict()
    _write(ns, ["delta", "delta_sq_offset", "eps_dp", "converged", "n_max"], rows, fit=fit)
    return EXIT_OK if len(good) == len(rows) else EXIT_CONVERGENCE


class Command(NamedTuple):
    """One subcommand: help text, flags, resolve(ns) -> inputs, run(ns, **inputs) -> exit code."""
    help: str
    flags: tuple
    resolve: Callable[[argparse.Namespace], dict]
    run: Callable[..., int]


COMMANDS = {
    "spectrum": Command("level diagram vs coupling, both parities, AA alongside", _RUN + _GRID + (
        _TOL, ("--levels", dict(type=int, default=8, help="levels per parity block")),
    ), _resolve_grid, run_spectrum),
    "gap-scan": Command("soft-mode and parity gaps vs coupling", _RUN + _GRID + (_TOL, _FIT),
                        partial(_resolve_grid, fit_cols=("eps_sp", "eps_dp")), run_gap_scan),
    "observables": Command(
        "photon number, polarization, quadratures vs coupling", _RUN + _GRID + (_TOL, _FIT),
        partial(_resolve_grid, fit_cols=("photon", "sigma_x", "dx", "dp")), run_observables),
    "qfi": Command("quantum Fisher information vs coupling", _RUN + _GRID + (
        _FIT,
        ("--oracle", dict(action="store_true",
                          help="add the fidelity-susceptibility cross check column")),
        ("--k-states", dict(type=int, default=64)),
    ), partial(_resolve_grid, fit_cols=("f_q",)), run_qfi),
    "wigner": Command("Wigner distribution of the ground-state photon mode", _RUN + (
        _R, _DELTA, _N_MAX, _TOL,
        ("--g", dict(type=float, default=None, help="absolute coupling")),
        ("--g-over-gc", dict(type=float, default=None, help="coupling in units of g_c")),
        ("--conditioning", dict(choices=["reduced", "qubit-up", "qubit-down"], default="reduced")),
        ("--half-width", dict(type=float, default=None)),
        ("--grid-points", dict(type=int, default=161)),
    ), lambda ns: {"model": _params(ns, g=ns.g, g_over_gc=ns.g_over_gc)}, run_wigner),
    "quench": Command("linear quench residual energy vs quench time", _RUN + (
        _R, _DELTA, _N_MAX, _FIT,
        ("--gf", dict(default="0.99", help="final coupling over g_c; accepts '1-1e-6'")),
        ("--tau-range", dict(type=float, nargs=2, default=None, metavar=("TMIN", "TMAX"),
                             help="log-spaced quench-time range")),
        ("--tau-points", dict(type=int, default=6)),
        ("--tau-list", dict(default=None, help="comma-separated quench times")),
        ("--samples", dict(type=int, default=0, help="trajectory samples (single-tau runs)")),
        ("--dt", dict(type=float, default=None,
                      help="time step override (the halving check still applies)")),
    ), _resolve_quench, run_quench),
    "collapse1d": Command("collapse-point 1D bound-state ladder", _RUN + (
        ("--delta", dict(default="critical",
                         help="qubit frequency, or 'critical' for the isotropic Delta_c = 0")),
        ("--n-max", dict(type=int, default=256, help="truncation of --check-hc")),
        ("--L", dict(type=float, default=400.0, help="half width of the Dirichlet box")),
        ("--h", dict(type=float, default=0.05, help="grid spacing")),
        ("--k", dict(type=int, default=6, help="levels requested")),
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
        ("--points", dict(type=int, default=6)),
        ("--n-max-final", dict(type=int, default=65536,
                               help="first truncation; doubles up to 4x until the 2%% gate "
                                    "against n_max/2 holds")),
    ), _resolve_gap_opening, run_gap_opening),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (argparse's 2 means convergence failure here), and no prefix
    matching: a removed flag such as gap-opening's --n-max must not stand for --n-max-final."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser(defaults: dict[str, dict] | None = None) -> argparse.ArgumentParser:
    """argparse view of COMMANDS; defaults[name] replaces that subcommand's flag defaults."""
    parser = _Parser(prog="tpqrm", description="Anisotropic two-photon Rabi model: spectra, "
                                               "scaling, quenches, collapse.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, kwargs in command.flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(**(defaults or {}).get(name, {}))
    return parser


def _load_config(argv: list[str]) -> argparse.Namespace:
    # first pass only to find --config; config fills defaults, CLI overrides
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
    if command and (not argv or argv[0] not in COMMANDS):
        argv = [command] + argv
    if not argv or argv[0] not in COMMANDS:
        raise ValueError("no subcommand given and none found in the config")
    cfg = {k.replace("-", "_"): v for k, v in cfg.items() if k != "package_version"}
    unknown = set(cfg) - {flag[2:].replace("-", "_") for flag, _ in COMMANDS[argv[0]].flags}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return build_parser({argv[0]: cfg}).parse_args(argv)


def _validate(ns, command: Command) -> int:
    """Run the subcommand's resolver, print its diagnostics and the manifest; compute nothing."""
    code, diagnostics = EXIT_OK, []
    try:
        inputs = _resolve(ns, command)
    except (ValueError, OSError) as exc:
        code, diagnostics = EXIT_CONFIG, [f"error: {exc}"]
    else:
        if getattr(ns, "delta", None) == "critical":
            diagnostics.append(f"delta 'critical' resolves to {inputs['model'].delta:.17g}")
    payload = {"diagnostics": diagnostics, "manifest": _manifest(ns)}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return code


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = _load_config(argv)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    command = COMMANDS[ns.command]
    if ns.validate:
        return _validate(ns, command)
    try:
        return command.run(ns, **_resolve(ns, command))
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, CollapseMappingError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
