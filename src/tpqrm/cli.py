"""Command-line frontend.

Every subcommand maps onto one quantitative claim family: `spectrum`
(level diagrams), `gap-scan` / `observables` / `qfi` (critical
exponents), `wigner` (phase-space distributions), `quench` (residual
energy vs quench time), `collapse1d` and `gap-opening` (collapse-point
structure), and `fit` (standalone log-log regression on any CSV).

Runs are deterministic: data go to `<out>.csv` at full double precision,
fits to `<out>_fit.json`, and a manifest with every default materialized
to `<out>_manifest.json`; `tpqrm --config <manifest>` reproduces the run
bit for bit.  Exit codes: 0 success, 1 configuration error, 2
convergence failure.  TPQRM_THREADS (default 1) fans sweep points out
across worker threads; output order never depends on completion order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from importlib.metadata import PackageNotFoundError
from importlib.metadata import version as _pkg_version

import numpy as np

from . import __version__, aa, analysis, collapse1d, ed, quench
from .errors import CollapseMappingError, ConvergenceError
from .model import ModelParams, SectorSpec, critical_params, params_from_dict

COMMANDS = (
    "spectrum",
    "gap-scan",
    "observables",
    "qfi",
    "wigner",
    "quench",
    "collapse1d",
    "fit",
    "gap-opening",
)

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


def _params(ns, **coupling) -> ModelParams:
    """ModelParams from --delta and --r plus the coupling keys that are set."""
    cfg = {"delta": ns.delta, "r": ns.r, **coupling}
    return params_from_dict({k: v for k, v in cfg.items() if v is not None})


def _collapse_problem(ns) -> collapse1d.Collapse1DProblem:
    # the isotropic collapse point has Delta_c = 0, so 'critical' means 0 here
    delta = 0.0 if ns.delta == "critical" else float(ns.delta)
    return collapse1d.Collapse1DProblem(delta=delta, L=ns.L, h=ns.h)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpqrm",
        description="Anisotropic two-photon Rabi model: spectra, scaling, quenches, collapse.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid=False, needs_g=False):
        p.add_argument("--config", type=str, default=None, help="JSON config; CLI flags override")
        p.add_argument("--r", type=float, default=0.6, help="anisotropy in [0, 1]")
        p.add_argument("--delta", type=str, default="critical",
                       help="qubit frequency, or 'critical' for Delta_c(r)")
        p.add_argument("--out", type=str, default=None, help="output path prefix")
        p.add_argument("--n-max", type=int, default=256, help="starting truncation")
        p.add_argument("--tol", type=float, default=1e-10, help="per-level convergence target")
        p.add_argument("--validate", action="store_true",
                       help="dry-run: check domains, print the resolved manifest, no computation")
        if grid:
            p.add_argument("--x-range", type=float, nargs=2, default=[1.5, 3.0],
                           metavar=("XMIN", "XMAX"), help="range in x = -log10(1 - g/gc)")
            p.add_argument("--points", type=int, default=7, help="grid points in x")
        if needs_g:
            p.add_argument("--g", type=float, default=None, help="absolute coupling")
            p.add_argument("--g-over-gc", type=float, default=None, help="coupling in units of g_c")

    p = sub.add_parser("spectrum", help="level diagram vs coupling, both parities, AA alongside")
    common(p, grid=True)
    p.add_argument("--levels", type=int, default=8, help="levels per parity block")

    p = sub.add_parser("gap-scan", help="soft-mode and parity gaps vs coupling")
    common(p, grid=True)
    p.add_argument("--fit", action="store_true", help="also fit log-log exponents")

    p = sub.add_parser("observables", help="photon number, polarization, quadratures vs coupling")
    common(p, grid=True)
    p.add_argument("--fit", action="store_true")

    p = sub.add_parser("qfi", help="quantum Fisher information vs coupling")
    common(p, grid=True)
    p.add_argument("--fit", action="store_true")
    p.add_argument("--oracle", action="store_true",
                   help="add the fidelity-susceptibility cross check column")
    p.add_argument("--k-states", type=int, default=64)

    p = sub.add_parser("wigner", help="Wigner distribution of the ground-state photon mode")
    common(p, needs_g=True)
    p.add_argument("--conditioning", choices=["reduced", "qubit-up", "qubit-down"],
                   default="reduced")
    p.add_argument("--half-width", type=float, default=None)
    p.add_argument("--grid-points", type=int, default=161)

    p = sub.add_parser("quench", help="linear quench residual energy vs quench time")
    common(p)
    p.add_argument("--gf", type=str, default="0.99",
                   help="final coupling as a fraction of g_c; accepts '1-1e-6'")
    p.add_argument("--tau-range", type=float, nargs=2, default=None, metavar=("TMIN", "TMAX"),
                   help="log-spaced quench-time range")
    p.add_argument("--tau-points", type=int, default=6)
    p.add_argument("--tau-list", type=str, default=None, help="comma-separated quench times")
    p.add_argument("--samples", type=int, default=0,
                   help="trajectory samples per run (single-tau runs)")
    p.add_argument("--dt", type=float, default=None,
                   help="time step override (the halving check still applies)")
    p.add_argument("--fit", action="store_true")

    p = sub.add_parser("collapse1d", help="collapse-point 1D bound-state ladder")
    common(p)
    p.add_argument("--L", type=float, default=400.0, help="half width of the Dirichlet box")
    p.add_argument("--h", type=float, default=0.05, help="grid spacing")
    p.add_argument("--k", type=int, default=6, help="levels requested")
    p.add_argument("--check-hc", action="store_true",
                   help="cross-check against the quadrature-form Hamiltonian")

    p = sub.add_parser("fit", help="log-log power-law fit on columns of an existing CSV")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--input", type=str, required=True)
    p.add_argument("--xcol", type=str, required=True)
    p.add_argument("--ycol", type=str, required=True)
    p.add_argument("--window", type=float, nargs=2, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--validate", action="store_true")

    p = sub.add_parser("gap-opening", help="parity gap at g = g_c against (Delta - Delta_c)^2")
    common(p)
    p.add_argument("--window", type=float, nargs=2, default=[0.06, 0.11],
                   metavar=("DLO", "DHI"), help="|Delta - Delta_c| fit window")
    p.add_argument("--points", type=int, default=6)
    p.add_argument("--n-max-final", type=int, default=65536,
                   help="first truncation; doubles up to 4x until the 2%% gate "
                        "against n_max/2 holds")

    return parser


def _load_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    # first pass only to find --config; config fills defaults, CLI overrides
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", type=str, default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config:
        with open(known.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
        command = cfg.pop("command", None)
        if command and (not argv or argv[0] not in COMMANDS):
            argv = [command] + argv
        if not argv or argv[0] not in COMMANDS:
            raise ValueError("no subcommand given and none found in the config")
        cfg.pop("package_version", None)
        sub_actions = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        sub = sub_actions.choices[argv[0]]
        valid = {a.dest for a in sub._actions}
        unknown = {k for k in cfg if k.replace("-", "_") not in valid}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        sub.set_defaults(**{k.replace("-", "_"): v for k, v in cfg.items()})
    return parser.parse_args(argv)


def _manifest(ns) -> dict:
    skip = {"validate"}
    out = {k: v for k, v in sorted(vars(ns).items()) if k not in skip}
    try:
        out["package_version"] = _pkg_version("tpqrm")
    except PackageNotFoundError:  # running from a source tree, not installed
        out["package_version"] = __version__
    return out


def _run_validate(ns) -> int:
    diagnostics: list[str] = []
    if ns.command != "fit":
        # grid and quench runs take g from their own flags; g = 0 checks delta and r alone
        coupling = {"g": ns.g, "g_over_gc": ns.g_over_gc} if hasattr(ns, "g") else {"g": 0.0}
        try:
            built = _collapse_problem(ns) if ns.command == "collapse1d" else _params(ns, **coupling)
            delta = built.delta
        except ValueError as exc:
            diagnostics.append(f"error: {exc}")
        else:
            if ns.delta == "critical":
                diagnostics.append(f"delta 'critical' resolves to {delta:.17g}")
        xr = getattr(ns, "x_range", None)
        if xr is not None and not 0.0 <= xr[0] < xr[1]:
            diagnostics.append(f"error: x-range {xr} needs 0 <= xmin < xmax")
        if ns.n_max < 2:
            diagnostics.append("error: n-max must be >= 2")
        diagnostics.append(f"n_max default/start: {ns.n_max}")
    points = getattr(ns, "points", None) or getattr(ns, "tau_points", None) or 1
    diagnostics.append(f"estimated sweep points: {points}")
    manifest = _manifest(ns)
    print(json.dumps({"diagnostics": diagnostics, "manifest": manifest}, indent=2, sort_keys=True))
    return EXIT_CONFIG if any(d.startswith("error:") for d in diagnostics) else EXIT_OK


def _write(ns, header: list[str] | None, rows: list[list], **extra_json) -> str:
    """Write <out>.csv (unless header is None), the manifest and <out>_<name>.json per extra."""
    out = ns.out if ns.out else ns.command
    if header is not None:
        write_csv(f"{out}.csv", header, rows)
    write_json(f"{out}_manifest.json", _manifest(ns))
    for name, payload in extra_json.items():
        write_json(f"{out}_{name}.json", payload)
    return out


def _sweep(ns, header: list[str], point_rows, fit_cols: tuple[str, ...], ok_col: str | None) -> int:
    """Coupling-grid runner shared by spectrum, gap-scan, observables and qfi.

    point_rows(params) gives one grid point's rows without the leading
    (g/g_c, x) columns.  --fit fits each of fit_cols against 1 - g/g_c;
    a falsy ok_col value in any row makes the exit code 2.
    """
    grid = analysis.make_grid(ns.x_range[0], ns.x_range[1], ns.points, ns.r)
    g_c, _ = critical_params(ns.r)

    def one(point):
        x, g = point
        return [[g / g_c, x, *row] for row in point_rows(_params(ns, g=g))]

    points = list(zip(grid.x_values, grid.g_values))
    rows = [row for chunk in _map_points(one, points) for row in chunk]
    out = _write(ns, header, rows)
    if fit_cols and ns.fit:
        u = np.array([1.0 - row[0] for row in rows])
        write_json(f"{out}_fit.json", {
            name: analysis.fit_powerlaw(u, [row[header.index(name)] for row in rows]).to_dict()
            for name in fit_cols
        })
    ok = ok_col is None or all(bool(row[header.index(ok_col)]) for row in rows)
    return EXIT_OK if ok else EXIT_CONVERGENCE


def run_spectrum(ns) -> int:
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
    return _sweep(ns, header, point_rows, (), "converged")


def run_gap_scan(ns) -> int:
    def point_rows(params):
        minus = ed.ed_spectrum(params, SectorSpec(0.25, -1), ns.n_max, ns.tol, k=2)
        plus = ed.ed_spectrum(params, SectorSpec(0.25, +1), ns.n_max, ns.tol, k=2)
        eps_sp = float(minus.energies[1] - minus.energies[0])
        eps_dp = abs(float(plus.energies[0] - minus.energies[0]))
        return [[eps_sp, eps_dp, bool(minus.converged.all() and plus.converged[0])]]

    header = ["g_over_gc", "x", "eps_sp", "eps_dp", "converged"]
    return _sweep(ns, header, point_rows, ("eps_sp", "eps_dp"), "converged")


def run_observables(ns) -> int:
    def point_rows(params):
        obs = ed.ed_ground_observables(params, ns.n_max, ns.tol)
        ref = aa.aa_observables(params)
        return [[obs.photon, obs.sigma_x, obs.dx, obs.dp, ref.photon, ref.sigma_x, ref.dx]]

    header = ["g_over_gc", "x", "photon", "sigma_x", "dx", "dp",
              "photon_aa", "sigma_x_aa", "dx_aa"]
    return _sweep(ns, header, point_rows, ("photon", "sigma_x", "dx", "dp"), None)


def run_qfi(ns) -> int:
    def point_rows(params):
        row = [ed.qfi_spectral(params, n_max=ns.n_max, k_states=ns.k_states),
               aa.aa_qfi_leading(params)]
        if ns.oracle:
            row.append(ed.qfi_fidelity_oracle(params, n_max=ns.n_max))
        return [row]

    header = ["g_over_gc", "x", "f_q", "f_q_aa"] + (["f_q_fidelity"] if ns.oracle else [])
    return _sweep(ns, header, point_rows, ("f_q",), None)


def run_wigner(ns) -> int:
    params = _params(ns, g=ns.g, g_over_gc=ns.g_over_gc)
    grid = ed.wigner_grid(
        params,
        n_max=ns.n_max,
        half_width=ns.half_width,
        points=ns.grid_points,
        conditioning=ns.conditioning,
        tol=ns.tol,
    )
    rows = [
        [x, p, grid.values[i, j]]
        for i, p in enumerate(grid.p_axis)
        for j, x in enumerate(grid.x_axis)
    ]
    _write(ns, ["x", "p", "w"], rows, report={"normalization": grid.normalization})
    return EXIT_OK


def run_quench(ns) -> int:
    params = _params(ns, g_over_gc=parse_gf(ns.gf))
    if ns.tau_list:
        taus = [float(t) for t in ns.tau_list.split(",")]
    elif ns.tau_range:
        taus = list(np.logspace(math.log10(ns.tau_range[0]), math.log10(ns.tau_range[1]),
                                ns.tau_points))
    else:
        raise ValueError("quench needs --tau-range or --tau-list")

    table = _map_points(
        lambda tau: quench.kz_sweep(params.g, [tau], params, n_max=ns.n_max, dt=ns.dt)[0], taus
    )
    rows = []
    for row in table:
        pred = quench.kz_predict(row["tau_q"], params) if row["tau_q"] > 1 else None
        rows.append([
            row["g_f_over_gc"], row["tau_q"], row["e_r"], row["norm_drift"],
            row["n_max"], row["dt"], row["converged"],
            pred.e_r_adiabatic if pred else math.nan,
            pred.e_r_kz if pred else math.nan,
        ])
    out = _write(ns, ["g_f_over_gc", "tau_q", "e_r", "norm_drift", "n_max", "dt", "converged",
                      "e_r_adiabatic_pred", "e_r_kz_pred"], rows)

    good = [row for row in table if row["converged"]]
    if ns.fit:
        if len(good) >= 5:
            fit = analysis.fit_powerlaw([r["tau_q"] for r in good], [r["e_r"] for r in good])
            write_json(f"{out}_fit.json", {"e_r_vs_tau": fit.to_dict()})
        else:
            write_json(f"{out}_fit.json", {"error": "fewer than 5 converged points"})

    if ns.samples and len(taus) == 1:
        protocol = quench.QuenchProtocol(g_f=params.g, tau_q=taus[0], r=ns.r, delta=params.delta,
                                         n_max=ns.n_max, dt=ns.dt)
        res = quench.propagate(protocol, n_samples=ns.samples)
        write_csv(f"{out}_trajectory.csv", ["t", "g", "energy", "ground_overlap"],
                  [list(s) for s in res.samples])
    return EXIT_OK if len(good) == len(table) else EXIT_CONVERGENCE


def run_collapse1d(ns) -> int:
    problem = _collapse_problem(ns)
    ladder = collapse1d.bound_states(problem, k=ns.k)
    rows = []
    for n in range(ns.k):
        ratio = ladder.ratios[n] if n < len(ladder.ratios) else math.nan
        rows.append([n, ladder.binding_energies[n], ratio, bool(ladder.converged[n])])
    out = _write(ns, ["n", "kappa4", "ratio", "converged"], rows)

    report = {"ratio_plateau": ladder.ratio_plateau}
    status = EXIT_OK
    if ns.check_hc:
        try:
            check = collapse1d.collapse_hamiltonian_check(problem.delta, n_max=ns.n_max)
            report["hamiltonian_check"] = asdict(check)
        except CollapseMappingError as exc:
            report["hamiltonian_check"] = {"error": str(exc)}
            status = EXIT_CONVERGENCE
    write_json(f"{out}_report.json", report)
    if not ladder.converged.any():
        status = EXIT_CONVERGENCE
    return status


def run_fit(ns) -> int:
    with open(ns.input, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.array([[float(v) for v in line.strip().split(",")] for line in fh if line.strip()])
    for col in (ns.xcol, ns.ycol):
        if col not in header:
            raise ValueError(f"column {col!r} not in {ns.input} (has {header})")
    u = data[:, header.index(ns.xcol)]
    y = data[:, header.index(ns.ycol)]
    fit = analysis.fit_powerlaw(u, y, window=tuple(ns.window) if ns.window else None)
    _write(ns, None, [], fit=fit.to_dict())
    print(json.dumps(fit.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def run_gap_opening(ns) -> int:
    g_c, delta_c = critical_params(ns.r)
    lo, hi = ns.window
    if not 0.0 < lo < hi:
        raise ValueError("gap-opening window needs 0 < DLO < DHI")
    if hi > delta_c:
        raise ValueError(f"window reaches Delta < 0 (Delta_c = {delta_c:.17g})")
    offsets = np.linspace(lo, hi, ns.points)

    def one(off: float):
        delta = delta_c - off
        params = ModelParams(delta=delta, g=g_c, r=ns.r)
        gap, n_max, conv = ed.collapse_point_gap(params, ns.n_max_final, 4 * ns.n_max_final)
        return [delta, off * off, gap, conv, n_max]

    rows = _map_points(one, list(offsets))
    good = [r for r in rows if r[3]]
    fit = {"error": "fewer than 5 converged points"}
    if len(good) >= 5:
        deltas, gaps = [r[0] for r in good], [r[2] for r in good]
        fit = analysis.fit_quadratic_gap(deltas, gaps, delta_c).to_dict()
    _write(ns, ["delta", "delta_sq_offset", "eps_dp", "converged", "n_max"], rows, fit=fit)
    return EXIT_OK if len(good) == len(rows) else EXIT_CONVERGENCE


_RUNNERS = {
    "spectrum": run_spectrum,
    "gap-scan": run_gap_scan,
    "observables": run_observables,
    "qfi": run_qfi,
    "wigner": run_wigner,
    "quench": run_quench,
    "collapse1d": run_collapse1d,
    "fit": run_fit,
    "gap-opening": run_gap_opening,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        ns = _load_config(parser, argv)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if getattr(ns, "validate", False):
        return _run_validate(ns)

    try:
        return _RUNNERS[ns.command](ns)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, CollapseMappingError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
