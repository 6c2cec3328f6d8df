import argparse
import dataclasses
import json
import math
import runpy
import sys
import warnings

import numpy as np
import pytest

from tpqrm import cli
from tpqrm.errors import ConvergenceError


def run_cli(args, cwd):
    import os

    old = os.getcwd()
    os.chdir(cwd)
    try:
        return cli.main(args)
    finally:
        os.chdir(old)


def test_gf_parsing():
    assert cli.parse_gf("0.99") == 0.99
    assert cli.parse_gf("1-1e-6") == pytest.approx(1.0 - 1e-6, rel=1e-15)
    assert cli.parse_gf("1-0.01") == pytest.approx(0.99, rel=1e-15)


def test_validate_flags_bad_coupling(tmp_path, capsys):
    code = run_cli(
        ["wigner", "--r", "0.6", "--g", "0.7", "--validate"], tmp_path
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_CONFIG
    assert any("exceeds g_c" in d for d in payload["diagnostics"])
    assert any("0.625" in d for d in payload["diagnostics"])


@pytest.mark.parametrize("text,message", [
    ('{"command": "spectrum", "bogus": 1}', "unknown config keys: ['bogus']"),
    ("[1, 2]", "config must be a JSON object"),
    ('{"command": ["spectrum"]}', "no subcommand given and none found in the config"),
])
def test_validate_prints_its_payload_when_the_config_fails_to_load(
        tmp_path, capsys, text, message):
    (tmp_path / "cfg.json").write_text(text)
    assert run_cli(["--config", "cfg.json", "--validate"], tmp_path) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert json.loads(out) == {"diagnostics": [f"error: {message}"], "manifest": None}
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("args,message", [
    (["spectrum", "--n-max", "abc"], "argument --n-max: invalid int value: 'abc'"),
    (["qfi", "--tol", "1e-9"], "unrecognized arguments: --tol 1e-9"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from 'spectrum', "
                     "'gap-scan', 'observables', 'qfi', 'wigner', 'quench', 'collapse1d', 'fit', "
                     "'gap-opening')"),
], ids=["n_max-abc", "qfi-tol", "frobnicate"])
def test_validate_prints_its_payload_on_a_usage_error(tmp_path, capsys, args, message):
    assert run_cli([*args, "--validate"], tmp_path) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert json.loads(out) == {"diagnostics": [f"error: {message}"], "manifest": None}
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("fit", [True, False])
def test_a_switch_key_takes_a_json_boolean(tmp_path, capsys, fit):
    (tmp_path / "cfg.json").write_text(json.dumps({"command": "gap-scan", "fit": fit}))
    assert run_cli(["--config", "cfg.json", "--validate"], tmp_path) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["manifest"]["fit"] is fit


def test_validate_resolves_critical_delta(tmp_path, capsys):
    code = run_cli(
        ["spectrum", "--r", "0.6", "--delta", "critical", "--validate"], tmp_path
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_OK
    assert any("resolves to 0.25" in d for d in payload["diagnostics"])
    assert payload["manifest"]["n_max"] == 256  # default materialized
    assert payload["manifest"]["command"] == "spectrum"


def test_collapse1d_validate_resolves_critical_as_the_run_does(tmp_path, capsys):
    # the run maps 'critical' to the isotropic collapse point, not Delta_c(r=0.6)
    code = run_cli(["collapse1d", "--validate"], tmp_path)
    payload = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_OK
    assert "delta 'critical' resolves to 0" in payload["diagnostics"]
    code = run_cli(["collapse1d", "--h", "500", "--validate"], tmp_path)
    payload = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_CONFIG
    assert ("error: h=500.0 is too coarse for L=400.0: the sinh-mapped grid needs 2 interior "
            "nodes per side, round(asinh(L)/h) = 0 steps leave 0") in payload["diagnostics"]


def test_manifest_version_falls_back_when_not_installed(tmp_path, capsys, monkeypatch):
    from importlib.metadata import PackageNotFoundError

    import tpqrm

    def not_installed(name):
        raise PackageNotFoundError(name)

    monkeypatch.setattr(cli, "_pkg_version", not_installed)
    code = run_cli(["spectrum", "--r", "0.6", "--validate"], tmp_path)
    payload = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_OK
    assert payload["manifest"]["package_version"] == tpqrm.__version__


def test_spectrum_run_deterministic_and_rerunnable(tmp_path):
    args = ["spectrum", "--r", "0.6", "--x-range", "0.2", "0.6", "--points", "3",
            "--levels", "3", "--n-max", "32", "--out", "runA"]
    assert run_cli(args, tmp_path) == cli.EXIT_OK
    first = (tmp_path / "runA.csv").read_bytes()

    assert run_cli(args[:-1] + ["runB"], tmp_path) == cli.EXIT_OK
    assert (tmp_path / "runB.csv").read_bytes() == first

    # rerun purely from the manifest
    manifest = tmp_path / "runA_manifest.json"
    assert manifest.exists()
    assert run_cli(["--config", str(manifest)], tmp_path) == cli.EXIT_OK
    assert (tmp_path / "runA.csv").read_bytes() == first

    header = first.decode().splitlines()[0].split(",")
    assert header == ["g_over_gc", "x", "level_index", "parity", "energy_ed",
                      "converged", "energy_aa"]


def test_spectrum_zero_coupling_content(tmp_path):
    run_cli(["spectrum", "--r", "0.6", "--delta", "1.0", "--x-range", "0.0", "0.1",
             "--points", "2", "--levels", "2", "--n-max", "32", "--out", "s"], tmp_path)
    rows = np.genfromtxt(tmp_path / "s.csv", delimiter=",", names=True)
    x0 = rows[rows["x"] == 0.0]
    assert sorted(x0["energy_ed"]) == pytest.approx([-0.5, 0.5, 1.5, 2.5], abs=1e-10)
    assert np.all(x0["energy_aa"] == pytest.approx(x0["energy_ed"], abs=1e-10))


def test_gap_scan_with_fit(tmp_path):
    code = run_cli(["gap-scan", "--r", "0.6", "--x-range", "1.0", "2.0", "--points", "5",
                    "--n-max", "64", "--fit", "--out", "gaps"], tmp_path)
    assert code == cli.EXIT_OK
    fit = json.loads((tmp_path / "gaps_fit.json").read_text())
    assert 0.4 < fit["eps_sp"]["exponent"] < 0.6
    assert 1.0 < fit["eps_dp"]["exponent"] < 1.5


def test_config_file_overridden_by_cli(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 0.6, "x_range": [0.2, 0.4], "points": 2,
                               "n_max": 32, "levels": 2}))
    code = run_cli(["spectrum", "--config", str(cfg), "--out", "fromcfg"], tmp_path)
    assert code == cli.EXIT_OK
    manifest = json.loads((tmp_path / "fromcfg_manifest.json").read_text())
    assert manifest["points"] == 2
    assert manifest["r"] == 0.6


def test_config_count_below_least_is_rejected(tmp_path, capsys):
    # a config value is parsed as its flag's text, so the flag's type= checks it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "qfi", "points": 0, "n_max": 16}))
    assert run_cli(["--config", str(cfg), "--validate"], tmp_path) == cli.EXIT_CONFIG
    assert "argument --points: 0 must be >= 2" in capsys.readouterr().out
    assert run_cli(["--config", str(cfg), "--out", "o"], tmp_path) == cli.EXIT_CONFIG
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nonsense": 1}))
    code = run_cli(["spectrum", "--config", str(cfg)], tmp_path)
    assert code == cli.EXIT_CONFIG
    assert "unknown config keys" in capsys.readouterr().err


_QUENCH_CONFIG = {"command": "quench", "r": 0.25, "gf": "0.5", "tau_list": "5", "n_max": 16}
# configs whose values argparse rejects as command-line text, a config that asks for a dry run
# itself, and nulls for flags whose default is not null
_BAD_CONFIGS = {
    "conditioning.json": {"command": "wigner", "r": 0.25, "g_over_gc": 0.5, "n_max": 16,
                          "grid_points": 21, "conditioning": "bogus"},
    "r_list.json": {"command": "spectrum", "r": [1, 2], "points": 2},
    "x_range_number.json": {"command": "spectrum", "x_range": 3, "points": 2},
    "fit_text.json": {"command": "gap-scan", "x_range": [1.0, 2.0], "points": 5, "n_max": 64,
                      "fit": "no"},
    "validate.json": {"command": "spectrum", "validate": True, "points": 2},
    "delta_null.json": {"command": "spectrum", "delta": None},
    "gf_null.json": {"command": "quench", "gf": None, "tau_list": "10"},
    "x_range_null.json": {"command": "spectrum", "x_range": None},
    "n_max_null.json": {"command": "spectrum", "n_max": None, "points": 2},
    "n_max_negative.json": {"command": "gap-scan", "n_max": -4, "points": 2},
}


@pytest.mark.parametrize("config,message", [
    pytest.param({**_QUENCH_CONFIG, "gf": 0.99},
                 "config key 'gf' must be a string, as on the command line; got 0.99",
                 id="gf-0.99"),
    pytest.param({**_QUENCH_CONFIG, "tau_list": 5},
                 "config key 'tau_list' must be a string, as on the command line; got 5",
                 id="tau_list-5"),
    pytest.param(_BAD_CONFIGS["conditioning.json"], "argument --conditioning: invalid choice: "
                 "'bogus' (choose from 'reduced', 'qubit-up', 'qubit-down')",
                 id="conditioning-bogus"),
    pytest.param(_BAD_CONFIGS["r_list.json"], "argument --r: invalid float value: '[1, 2]'",
                 id="r-list"),
    pytest.param(_BAD_CONFIGS["x_range_number.json"], "argument --x-range: expected 2 arguments",
                 id="x_range-3"),
    pytest.param({"command": "spectrum", "x_range": [1, 2, 3]},
                 "config key 'x_range' takes 2 values; got 3", id="x_range-long"),
    pytest.param({"command": "fit", "input": "data.csv", "xcol": "u", "ycol": "y",
                  "window": [0.1]}, "config key 'window' takes 2 values; got 1",
                 id="window-short"),
    pytest.param({"command": "spectrum", "x_range": [1, "a"]},
                 "argument --x-range: invalid float value: 'a'", id="x_range-text"),
    pytest.param({"command": "spectrum", "points": 2.5},
                 "argument --points: invalid int value: '2.5'", id="points-2.5"),
    pytest.param({"command": "spectrum", "r": True},
                 "argument --r: invalid float value: 'True'", id="r-true"),
    pytest.param(_BAD_CONFIGS["fit_text.json"], "config key 'fit' must be true or false; got 'no'",
                 id="fit-no"),
    pytest.param({"command": "gap-scan", "fit": 1}, "config key 'fit' must be true or false; "
                 "got 1", id="fit-1"),
    pytest.param({"command": "qfi", "oracle": None}, "config key 'oracle' must be true or "
                 "false; got None", id="oracle-null"),
    pytest.param(_BAD_CONFIGS["validate.json"], "config key 'validate' is not read from a "
                 "config; pass --validate on the command line", id="validate-true"),
    pytest.param({"command": "spectrum", "validate": True, "bogus": 1}, "config key "
                 "'validate' is not read from a config; pass --validate on the command line",
                 id="validate-and-unknown"),
    pytest.param(_BAD_CONFIGS["n_max_negative.json"], "argument --n-max: -4 must be >= 2",
                 id="n_max-negative"),
    *[pytest.param(_BAD_CONFIGS[f"{key}_null.json"], f"config key '{key}' cannot be null: "
                   f"--{key.replace('_', '-')} has a default", id=f"{key}-null")
      for key in ("delta", "gf", "x_range", "n_max")],
])
def test_a_config_value_the_command_line_would_reject_is_rejected_by_key(
        tmp_path, capsys, config, message):
    # a config value is parsed as its flag's command-line text, so argparse rejects it by flag;
    # the loader itself checks only what argparse cannot: a switch, a text flag, a null
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    for extra in (["--validate"], ["--out", "o"]):
        assert run_cli(["--config", str(cfg), *extra], tmp_path) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


def test_wigner_command(tmp_path):
    code = run_cli(["wigner", "--r", "0.25", "--g-over-gc", "0.5", "--n-max", "64",
                    "--grid-points", "61", "--out", "w"], tmp_path)
    assert code == cli.EXIT_OK
    data = np.genfromtxt(tmp_path / "w.csv", delimiter=",", names=True)
    report = json.loads((tmp_path / "w_report.json").read_text())
    assert abs(report["normalization"] - 1.0) < 1e-3
    assert len(data) == 61 * 61


def test_wigner_grid_too_coarse_to_integrate_fails_the_gate(tmp_path, capsys):
    code = run_cli(["wigner", "--g-over-gc", "0.5", "--grid-points", "3", "--out", "w"], tmp_path)
    assert code == cli.EXIT_CONVERGENCE
    assert "Wigner normalization" in capsys.readouterr().err
    report = json.loads((tmp_path / "w_report.json").read_text())  # written, so it can be seen
    assert abs(report["normalization"] - 1.0) > 1e-3
    assert len(np.genfromtxt(tmp_path / "w.csv", delimiter=",", names=True)) == 9


def test_quench_command_small(tmp_path):
    code = run_cli(["quench", "--r", "0.25", "--gf", "0.5", "--tau-list", "5,10",
                    "--n-max", "64", "--dt", "0.005", "--out", "q"], tmp_path)
    assert code == cli.EXIT_OK
    data = np.genfromtxt(tmp_path / "q.csv", delimiter=",", names=True)
    assert list(data["tau_q"]) == [5.0, 10.0]
    assert np.all(data["converged"] == 1)
    assert np.all(data["e_r"] >= -1e-10)


def test_quench_trajectory_samples(tmp_path, monkeypatch):
    from tpqrm import quench

    calls = []
    propagate = quench.propagate

    def recording(protocol, *args, **kwargs):
        calls.append(protocol)
        return propagate(protocol, *args, **kwargs)

    monkeypatch.setattr(quench, "propagate", recording)
    code = run_cli(["quench", "--r", "0.25", "--gf", "0.6", "--tau-list", "5",
                    "--n-max", "64", "--dt", "0.005", "--samples", "5", "--out", "qt"],
                   tmp_path)
    assert code == cli.EXIT_OK
    assert len(calls) == 1  # the run that yields E_r also records the trajectory
    data = np.genfromtxt(tmp_path / "qt_trajectory.csv", delimiter=",", names=True)
    assert len(data) == 5
    assert set(data.dtype.names) == {"t", "g", "energy"}


def test_fit_command_roundtrip(tmp_path):
    u = np.geomspace(1e-3, 1e-1, 8)
    lines = ["u,y"] + [f"{a:.17g},{3.0 * a**-2.0:.17g}" for a in u]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    code = run_cli(["fit", "--input", "data.csv", "--xcol", "u", "--ycol", "y",
                    "--out", "pl"], tmp_path)
    assert code == cli.EXIT_OK
    fit = json.loads((tmp_path / "pl_fit.json").read_text())
    assert fit["exponent"] == pytest.approx(-2.0, abs=1e-10)
    assert fit["amplitude"] == pytest.approx(3.0, rel=1e-10)


@pytest.mark.parametrize("config", [False, True], ids=["flags", "config"])
def test_a_negative_value_in_exponent_form_is_a_value(tmp_path, config):
    # argparse's own pattern takes -1e-05 for a flag; -0.00001 it reads as a number
    _write_data_csv(tmp_path)
    args = ["fit", "--input", "data.csv", "--xcol", "u", "--ycol", "y"]
    assert run_cli([*args, "--window", "-0.00001", "1", "--out", "plain"], tmp_path) == cli.EXIT_OK
    if config:
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"command": "fit", "input": "data.csv", "xcol": "u", "ycol": "y",
             "window": [-1e-05, 1], "out": "exp"}))
        assert run_cli(["--config", "cfg.json"], tmp_path) == cli.EXIT_OK
    else:
        assert run_cli([*args, "--window", "-1e-05", "1", "--out", "exp"], tmp_path) == cli.EXIT_OK
    assert (tmp_path / "exp_fit.json").read_bytes() == (tmp_path / "plain_fit.json").read_bytes()
    manifest = json.loads((tmp_path / "exp_manifest.json").read_text())
    assert manifest["window"] == [-1e-05, 1.0]


@pytest.mark.parametrize("args,message", [
    (["quench", "--r", "0.25", "--gf", "0.5", "--tau-list", "50", "--dt", "-0.1"],
     "dt=-0.1 must be finite and positive"),
    (["quench", "--r", "0.25", "--gf", "0.5", "--tau-range", "-1", "10"],
     "argument --tau-range: -1.0 must be finite and positive"),
    (["wigner", "--g-over-gc", "0.5", "--half-width", "nan"],
     "argument --half-width: nan must be finite and positive"),
    (["wigner", "--g-over-gc", "0.5", "--half-width", "1000"],
     "--grid-points=161 with --half-width=1000.0 needs a y-lattice of 2.05e+08 entries per "
     "array, above 8388608"),
    (["gap-opening", "--window", "0.06", "inf"],
     "argument --window: inf must be finite and positive"),
])
def test_bad_lengths_are_rejected_by_name(tmp_path, capsys, args, message):
    _rejected_alike(tmp_path, capsys, args, message)


@pytest.mark.parametrize("args,message", [
    *[([name, "--n-max", "16385", "--points", "2"], "argument --n-max: 16385 must be <= 16384")
      for name in ("spectrum", "gap-scan", "observables", "qfi")],
    (["wigner", "--g-over-gc", "0.5", "--n-max", "16385"],
     "argument --n-max: 16385 must be <= 16384"),
    (["spectrum", "--levels", "8193", "--points", "2"],
     "argument --levels: 8193 must be <= 8192"),
], ids=["spectrum", "gap-scan", "observables", "qfi", "wigner", "levels"])
def test_a_first_rung_above_the_ladder_ceiling_is_rejected_by_its_flag(tmp_path, capsys, args,
                                                                        message):
    _rejected_alike(tmp_path, capsys, args, message)


@pytest.mark.parametrize("args", [["quench", "--gf", "0.5", "--tau-list", "5"], ["collapse1d"]])
def test_an_n_max_that_is_no_first_rung_takes_no_ceiling(tmp_path, args):
    # quench's --n-max scales its propagation basis and collapse1d's is a ceiling
    assert run_cli([*args, "--n-max", "16385", "--validate"], tmp_path) == cli.EXIT_OK


@pytest.mark.parametrize("args,flag,bad", [
    (["quench", "--gf", "0.5", "--tau-list", "5,"], "--tau-list", "''"),
    (["quench", "--gf", "0.5", "--tau-list", "5,x,7"], "--tau-list", "'x'"),
    (["quench", "--gf", "abc", "--tau-list", "5"], "--gf", "'abc'"),
    (["quench", "--gf", "1-x", "--tau-list", "5"], "--gf", "'x'"),
    (["spectrum", "--delta", "abc"], "--delta", "'abc'"),
    (["collapse1d", "--delta", "abc"], "--delta", "'abc'"),
], ids=["tau_list_empty", "tau_list_word", "gf", "gf_complement", "delta", "collapse1d_delta"])
def test_a_bad_number_is_quoted_with_its_flag(tmp_path, capsys, args, flag, bad):
    _rejected_alike(tmp_path, capsys, args, f"{flag}: {bad} is not a number")


@pytest.mark.parametrize("args,message", [
    (["spectrum", "--x-range", "1.5", "inf"], "x_max=inf must be finite"),
    (["fit", "--input", "data.csv", "--xcol", "u", "--ycol", "y", "--window", "0", "inf"],
     "window_hi=inf must be finite"),
    (["fit", "--input", "data.csv", "--xcol", "u", "--ycol", "y", "--window", "-inf", "1"],
     "window_lo=-inf must be finite"),
    (["quench", "--gf", "0.5", "--tau-list", "5,10", "--samples", "3"],
     "--samples records the trajectory of a single quench time; got 2 quench times"),
    *[(args, "exactly one of --g and --g-over-gc is required")
      for args in (["wigner", "--g", "0.1", "--g-over-gc", "0.5"], ["wigner"])],
    (["fit", "--input", "data.csv", "--xcol", "v", "--ycol", "y"],
     "column 'v' not in data.csv (has ['u', 'y'])"),
    (["gap-opening", "--window", "0.11", "0.06"], "gap-opening window needs 0 < DLO < DHI"),
], ids=["x_range-inf", "fit_window-inf", "fit_window-minus-inf", "samples-sweep", "coupling-both",
        "coupling-neither", "fit-missing-column", "gap-opening-window"])
def test_an_input_the_run_cannot_use_is_rejected_by_name(tmp_path, capsys, args, message):
    _write_data_csv(tmp_path)
    _rejected_alike(tmp_path, capsys, args, message)


def _write_data_csv(tmp_path):
    """data.csv: y = u^2 at six log-spaced u in [1e-3, 1e-1], the fit subcommand's input."""
    u = np.geomspace(1e-3, 1e-1, 6)
    (tmp_path / "data.csv").write_text("u,y\n" + "".join(f"{a:.17g},{a**2:.17g}\n" for a in u))


def _rejected_alike(tmp_path, capsys, args, message):
    """Both --validate and the run exit 1 with exactly this message."""
    assert run_cli(args + ["--validate"], tmp_path) == cli.EXIT_CONFIG
    assert json.loads(capsys.readouterr().out)["diagnostics"] == [f"error: {message}"]
    assert run_cli(args, tmp_path) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("text,message", [
    ("u,y\n", "data.csv has no data rows"),
    ("u,y\n1,2\n3\n", "data.csv has a row of 1 fields under a header of 2"),
    ("u,y\n1,2\n\n3,x\n", "data.csv line 4: 'x' is not a number"),
], ids=["no_rows", "short_row", "not_a_number"])
def test_fit_rejects_a_malformed_csv_by_file_name(tmp_path, capsys, text, message):
    (tmp_path / "data.csv").write_text(text)
    _rejected_alike(tmp_path, capsys, ["fit", "--input", "data.csv", "--xcol", "u", "--ycol", "y"],
                    message)


def test_collapse1d_without_a_tower_reports_no_bound_state(tmp_path):
    # the default delta is the isotropic Delta_c = 0, where nothing binds
    code = run_cli(["collapse1d", "--L", "50", "--h", "0.2", "--k", "2", "--out", "c"], tmp_path)
    assert code == cli.EXIT_OK
    report = json.loads((tmp_path / "c_report.json").read_text())
    assert report["bound_states"] == 0
    assert "binds a tower only for delta > 1" in report["reason"]


def test_collapse1d_tower_without_a_converged_level_fails(tmp_path):
    # at delta > 1 a level must bind; a 3-wide box fails every refinement gate
    code = run_cli(["collapse1d", "--delta", "3", "--L", "3", "--h", "0.5", "--k", "2",
                    "--out", "c"], tmp_path)
    assert code == cli.EXIT_CONVERGENCE
    report = json.loads((tmp_path / "c_report.json").read_text())
    assert report["bound_states"] == 0 and "reason" not in report


@pytest.mark.parametrize("delta", ["3", "critical"])
def test_collapse1d_check_hc_holds_at_its_defaults(tmp_path, delta):
    # --n-max defaults to the library's 16,384-row ceiling of the check's ladder
    assert run_cli(["collapse1d", "--delta", delta, "--check-hc", "--out", "c"],
                   tmp_path) == cli.EXIT_OK
    check = json.loads((tmp_path / "c_report.json").read_text())["hamiltonian_check"]
    assert check["consistent"] and check["n_max"] == 16384
    assert check["held"] == ({"1": True, "-1": True} if delta == "3" else {})


def test_a_failed_collapse_check_writes_its_report(tmp_path):
    # a 256-row ceiling leaves the third even level 1% off the 1D mapping
    code = run_cli(["collapse1d", "--delta", "3", "--check-hc", "--n-max", "256", "--out", "c"],
                   tmp_path)
    assert code == cli.EXIT_CONVERGENCE
    check = json.loads((tmp_path / "c_report.json").read_text())["hamiltonian_check"]
    assert check["error"] == "collapse-point levels disagree with the 1D mapping beyond tolerance"
    assert not check["consistent"] and check["n_max_used"] == {"1": 256, "-1": 256}
    assert check["held"] == {"1": False, "-1": False}  # one rung each: nothing to hold against
    assert [row[2] > 1e-3 for row in check["matched_even"]] == [False, False, True]


def test_collapse1d_command(tmp_path):
    code = run_cli(["collapse1d", "--delta", "3.0", "--L", "200", "--h", "0.05",
                    "--k", "4", "--out", "c1"], tmp_path)
    assert code == cli.EXIT_OK
    data = np.genfromtxt(tmp_path / "c1.csv", delimiter=",", names=True)
    assert len(data) == 4
    assert data["kappa4"][0] == pytest.approx(1.2576, rel=1e-3)
    report = json.loads((tmp_path / "c1_report.json").read_text())
    assert 0.09 < report["ratio_plateau"] < 0.13
    assert report["rows"] == 2 * round(math.asinh(200.0) / 0.05) - 1
    assert len(report["refinement"]) == 4 and max(report["refinement"]) < 5e-3


def test_gap_opening_doubles_to_the_gate(tmp_path):
    args = ["gap-opening", "--r", "0.25", "--window", "0.15", "0.2", "--points", "5",
            "--n-max-final", "2048", "--out", "go"]
    assert run_cli(args, tmp_path) == cli.EXIT_OK
    data = np.genfromtxt(tmp_path / "go.csv", delimiter=",", names=True)
    assert np.all(data["converged"] == 1)
    assert np.all(data["n_max"] > 2048)  # the start truncation misses the 2% gate
    fit = json.loads((tmp_path / "go_fit.json").read_text())
    assert fit["r_squared"] > 0.99
    # from 256 the 4x ceiling is too low, and every point is reported unconverged
    args[args.index("2048")] = "256"
    assert run_cli(args, tmp_path) == cli.EXIT_CONVERGENCE


@pytest.mark.parametrize("name", ["quench", "gap-opening", "gap-scan", "observables", "qfi"])
def test_a_fit_over_fewer_than_five_converged_points_is_an_error(tmp_path, monkeypatch, name):
    # five points, the last unconverged: the fit file names the shortfall and the run exits 2
    from tpqrm import ed, quench

    shortfall = {"error": "fewer than 5 converged points"}
    expected = shortfall
    if name == "gap-scan":
        spectrum = ed.ed_spectrum

        def solve(params, *args, **kwargs):  # the last point, at g = 0.60 g_c, is unconverged
            spec = spectrum(params, *args, **kwargs)
            if params.g > 0.58 * params.g_c:
                spec = dataclasses.replace(spec, converged=np.zeros_like(spec.converged))
            return spec

        monkeypatch.setattr(ed, "ed_spectrum", solve)
        args = ["gap-scan", "--x-range", "0.2", "0.4", "--points", "5", "--n-max", "16", "--fit"]
        expected = {"eps_sp": shortfall, "eps_dp": shortfall}
    elif name in ("observables", "qfi"):  # the last point's ladder raises
        solver = "ed_ground_observables" if name == "observables" else "qfi_spectral"
        solve_point = getattr(ed, solver)

        def solve(params, *args, **kwargs):
            if params.g > 0.58 * params.g_c:
                raise ConvergenceError("forced")
            return solve_point(params, *args, **kwargs)

        monkeypatch.setattr(ed, solver, solve)
        args = [name, "--x-range", "0.2", "0.4", "--points", "5", "--n-max", "16", "--fit"]
        cols = ("photon", "sigma_x", "dx", "dp") if name == "observables" else ("f_q",)
        expected = {col: shortfall for col in cols}
    elif name == "quench":
        propagate = quench.propagate

        def solve(protocol, *args, **kwargs):
            if protocol.tau_q == 6.0:
                raise ConvergenceError("forced")
            return propagate(protocol, *args, **kwargs)

        monkeypatch.setattr(quench, "propagate", solve)
        args = ["quench", "--r", "0.25", "--gf", "0.5", "--tau-list", "2,3,4,5,6", "--n-max", "16",
                "--dt", "0.05", "--fit"]
    else:
        held = iter([True] * 4 + [False])
        monkeypatch.setattr(ed, "collapse_point_gap",
                            lambda params, n_max, ceiling: (1.0 + params.delta, n_max, next(held)))
        args = ["gap-opening", "--r", "0.25", "--window", "0.15", "0.2", "--points", "5",
                "--n-max-final", "64"]
    assert run_cli(args + ["--out", "o"], tmp_path) == cli.EXIT_CONVERGENCE
    data = np.genfromtxt(tmp_path / "o.csv", delimiter=",", names=True)
    assert list(data["converged"]) == [1, 1, 1, 1, 0]
    assert json.loads((tmp_path / "o_fit.json").read_text()) == expected


def test_unknown_subcommand_fails(capsys):
    assert cli.main(["frobnicate"]) == cli.EXIT_CONFIG  # 2 is reserved for convergence failure
    assert capsys.readouterr().err.startswith("config error: argument command: invalid choice: "
                                              "'frobnicate'")
    # a removed flag is a usage error too, also where it prefixes a declared one
    for args, message in ((["qfi", "--tol", "1e-9"], "unrecognized arguments: --tol 1e-9"),
                          (["gap-opening", "--n-max", "64"], "unrecognized arguments: --n-max 64"),
                          (["collapse1d", "--r", "0.5"], "unrecognized arguments: --r 0.5"),
                          (["spectrum", "--points", "abc"],
                           "argument --points: invalid int value: 'abc'"),
                          (["gap-opening", "--points", "3"], "argument --points: 3 must be >= 5")):
        assert cli.main(args) == cli.EXIT_CONFIG, args
        assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("name", [name for name, command in cli.COMMANDS.items()
                                  if any(flag == "--n-max" for flag, _ in command.flags)])
def test_every_n_max_flag_rejects_a_truncation_below_two_rows(capsys, name):
    for n in ("-5", "0", "1"):
        assert cli.main([name, "--n-max", n]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: argument --n-max: {n} must be >= 2\n"


@pytest.mark.parametrize("args", [
    ["gap-opening", "--r", "0.6", "--window", "0.5", "0.9"],  # window reaches Delta < 0
    ["quench", "--r", "0.25"],  # no quench times
    ["spectrum", "--r", "0.6", "--points", "1"],
    ["quench", "--r", "0.25", "--gf", "1.5", "--tau-list", "5"],  # g > g_c
    ["qfi", "--r", "0.6", "--x-range", "0.5", "1.5", "--points", "3", "--fit"],
    ["quench", "--r", "0.25", "--gf", "0.5", "--tau-list", "5,10", "--fit"],
    ["spectrum", "--r", "0.6", "--n-max", "1", "--points", "2", "--x-range", "0.1", "0.2"],
    # count flags below what the library call accepts
    ["collapse1d", "--delta", "3", "--L", "50", "--h", "0.2", "--k", "0"],
    ["spectrum", "--levels", "0", "--points", "2", "--n-max", "16"],
    ["gap-opening", "--r", "0.25", "--window", "0.15", "0.2", "--points", "5",
     "--n-max-final", "1"],
    ["qfi", "--n-max", "1", "--points", "2"],
    ["wigner", "--g-over-gc", "0.5", "--grid-points", "1"],
    ["quench", "--r", "0.25", "--tau-range", "1", "10", "--tau-points", "0"],
    ["quench", "--r", "0.25", "--gf", "0.5", "--tau-list", "5", "--samples", "-3", "--n-max",
     "32", "--dt", "0.05"],
    ["gap-opening", "--r", "0.25", "--window", "0.15", "0.2", "--points", "0"],
    # fewer points than the fit that gap-opening always makes accepts
    ["gap-opening", "--r", "0.25", "--window", "0.15", "0.2", "--points", "3"],
    # 150 samples from a run of 100 steps
    ["quench", "--r", "0.25", "--gf", "0.5", "--tau-list", "5", "--samples", "150", "--n-max",
     "32", "--dt", "0.05"],
    # non-positive or non-finite lengths
    *[["quench", "--r", "0.25", "--gf", "0.5", "--tau-list", "50", "--n-max", "32", "--dt", dt]
      for dt in ("-0.1", "0")],
    ["quench", "--r", "0.25", "--gf", "0.5", "--tau-range", "0", "10", "--n-max", "32"],
    *[["wigner", "--g-over-gc", "0.5", "--half-width", w] for w in ("-12", "nan", "inf")],
    # oversized Wigner lattices, and quench times that are not numbers
    *[["wigner", "--g-over-gc", "0.5", "--half-width", w] for w in ("1000", "1e300")],
    ["wigner", "--g-over-gc", "0.5", "--grid-points", "5000"],
    *[["quench", "--r", "0.25", "--gf", "0.5", "--tau-list", t] for t in ("5,", "5,x")],
    # --check-hc outside its delta domain, or with too few rows for its Delta = 0 ladder
    ["collapse1d", "--delta", "0.5", "--check-hc"],
    *[["collapse1d", "--delta", "0", "--n-max", n, "--check-hc"] for n in ("8", "3")],
    # a fit window that keeps 2 points, and a non-positive value in a fitted column
    ["fit", "--input", "data.csv", "--xcol", "u", "--ycol", "y", "--window", "0.03", "1"],
    ["fit", "--input", "zero.csv", "--xcol", "u", "--ycol", "y"],
    # a --tol that is not finite and positive, on each subcommand that declares it
    ["gap-scan", "--tol", "nan", "--points", "2"],
    ["gap-scan", "--tol", "-1", "--points", "2"],
    ["spectrum", "--tol", "0", "--points", "2"],
    ["observables", "--tol", "inf", "--points", "2"],
    ["wigner", "--g-over-gc", "0.5", "--tol", "nan"],
    # config values that argparse would reject on the command line
    *[["--config", name] for name in _BAD_CONFIGS],
    # a flag value that is not a number, non-finite grid and fit bounds, and trajectory
    # samples over a sweep of quench times
    ["spectrum", "--n-max", "abc"],
    ["spectrum", "--x-range", "1.5", "inf"],
    ["fit", "--input", "data.csv", "--xcol", "u", "--ycol", "y", "--window", "0", "inf"],
    ["quench", "--r", "0.25", "--gf", "0.5", "--tau-list", "5,10", "--samples", "3", "--n-max",
     "32", "--dt", "0.05"],
    # a truncation below 2 rows, on each grid command and wigner
    *[[name, "--n-max", n, "--points", "2"] for name in ("spectrum", "gap-scan", "observables")
      for n in ("-5", "0")],
    ["wigner", "--g-over-gc", "0.5", "--n-max", "0"],
    # more samples than the start step's 273 steps at an adiabatic near-critical point
    ["quench", "--r", "0.25", "--gf", "0.99", "--tau-list", "1000", "--samples", "274"],
    # both couplings, and neither
    ["wigner", "--g", "0.1", "--g-over-gc", "0.5"],
    ["wigner"],
    # a first rung above the ladder's ceiling, by --n-max or by spectrum's --levels
    *[[name, "--n-max", "20000", "--points", "2"]
      for name in ("spectrum", "gap-scan", "observables", "qfi")],
    ["wigner", "--g-over-gc", "0.5", "--n-max", "20000"],
    ["spectrum", "--levels", "9000", "--points", "2"],
    # a gap-opening window bound that is not finite
    ["gap-opening", "--window", "0.06", "inf"],
])
def test_validate_agrees_with_the_run(tmp_path, capsys, args):
    u = np.geomspace(1e-3, 1e-1, 6)
    inputs = {"data.csv": [a**2 for a in u], "zero.csv": [a**2 for a in u[:-1]] + [0.0]}
    for name, y in inputs.items():
        rows = "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(u, y))
        (tmp_path / name).write_text("u,y\n" + rows)
    for name, config in _BAD_CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(config))
    validate = run_cli(args + ["--validate"], tmp_path)
    diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
    run = run_cli(args + ["--out", "o"], tmp_path)
    assert validate == run
    assert (validate == cli.EXIT_CONFIG) == any(d.startswith("error:") for d in diagnostics)
    if run == cli.EXIT_CONFIG:  # rejected before the run, with no output
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted([*inputs, *_BAD_CONFIGS])


def test_quench_samples_solve_the_start_bound_once(tmp_path, capsys, monkeypatch):
    # --validate solves the start step to check the sample count; a run leaves the check to
    # kz_sweep, whose one record gives both the start step and E_0, so no other E_0 ladder
    # runs; the manifest keeps dt null
    from tpqrm import ed, quench

    calls, ground_ladders = [], []

    def counting(original, seen):
        def call(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(quench, "abrupt_start_bound", counting(quench.abrupt_start_bound, calls))
    monkeypatch.setattr(ed, "ground_state_block", counting(ed.ground_state_block, ground_ladders))
    args = ["quench", "--r", "0.25", "--gf", "0.99", "--tau-list", "1000", "--samples", "5"]
    assert run_cli(args + ["--validate"], tmp_path) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["manifest"]["dt"] is None
    assert len(calls) == 1
    assert run_cli(args + ["--out", "o"], tmp_path) == cli.EXIT_OK
    assert len(calls) == 2
    assert ground_ladders == []
    assert json.loads((tmp_path / "o_manifest.json").read_text())["dt"] is None
    assert len((tmp_path / "o_trajectory.csv").read_text().splitlines()) == 1 + 5


@pytest.mark.parametrize("name,written", [(name, ["o.csv", "o_manifest.json"])
                                          for name in ("observables", "qfi", "gap-scan")])
def test_a_convergence_failure_exits_2(tmp_path, capsys, name, written):
    # deep in the critical window the ground-state ladder (observables) and the F_Q ladder
    # (qfi) raise at their ceilings: each such point is a NaN row flagged unconverged, with
    # one line on stderr naming its x, and every row and the manifest are written, as
    # gap-scan writes the points it flags
    args = [name, "--x-range", "7", "7.5", "--points", "2", "--out", "o"]
    assert run_cli(args, tmp_path) == cli.EXIT_CONVERGENCE
    err = capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == written
    data = np.genfromtxt(tmp_path / "o.csv", delimiter=",", names=True)
    assert list(data["converged"]) == [0, 0]
    assert list(data["x"]) == [7.0, 7.5]
    if name == "gap-scan":
        assert err == ""
    else:
        assert [line.split(": ")[0] for line in err.splitlines()] == [
            "convergence failure at x=7", "convergence failure at x=7.5"]
        values = [col for col in data.dtype.names if col not in ("g_over_gc", "x", "converged")]
        assert all(np.isnan(data[col]).all() for col in values)


def test_a_wigner_ground_state_that_does_not_converge_exits_2(tmp_path, capsys):
    # one point, no rows to flag: the run reports the raise in one line and writes the
    # manifest and a report holding the message, and the manifest repeats the run
    args = ["wigner", "--r", "0.25", "--g-over-gc", "0.99999999", "--grid-points", "21",
            "--out", "w"]
    message = "ground state unconverged: estimate 1.07e-05 at ceiling truncation"
    assert run_cli(args, tmp_path) == cli.EXIT_CONVERGENCE
    assert capsys.readouterr().err == f"convergence failure: {message}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["w_manifest.json",
                                                                "w_report.json"]
    assert json.loads((tmp_path / "w_report.json").read_text()) == {"error": message}
    manifest = json.loads((tmp_path / "w_manifest.json").read_text())
    assert run_cli(["--config", "w_manifest.json"], tmp_path) == cli.EXIT_CONVERGENCE
    assert capsys.readouterr().err == f"convergence failure: {message}\n"
    repeated = json.loads((tmp_path / "w_manifest.json").read_text())
    assert repeated == {**manifest, "config": "w_manifest.json"}


_FLAG_READ_RUNS = {
    "spectrum": ["--x-range", "0.2", "0.4", "--points", "2", "--levels", "2", "--n-max", "16"],
    "gap-scan": ["--x-range", "0.2", "0.4", "--points", "2", "--n-max", "16"],
    "observables": ["--x-range", "0.2", "0.4", "--points", "2", "--n-max", "16"],
    "qfi": ["--x-range", "0.2", "0.4", "--points", "2", "--n-max", "16", "--oracle"],
    "wigner": ["--r", "0.25", "--g-over-gc", "0.3", "--n-max", "16", "--grid-points", "21"],
    "quench": ["--r", "0.25", "--gf", "0.5", "--tau-range", "2", "2", "--tau-points", "1",
               "--n-max", "16", "--dt", "0.05", "--samples", "2"],
    "collapse1d": ["--delta", "3.0", "--L", "50", "--h", "0.2", "--k", "2", "--check-hc",
                   "--n-max", "64"],
    "fit": ["--input", "data.csv", "--xcol", "u", "--ycol", "y", "--window", "0", "1"],
    "gap-opening": ["--r", "0.25", "--window", "0.15", "0.2", "--points", "5",
                    "--n-max-final", "64"],
}


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_every_declared_flag_is_read(tmp_path, monkeypatch, name):
    _write_data_csv(tmp_path)
    monkeypatch.chdir(tmp_path)
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, attr):
            reads.add(attr)
            return super().__getattribute__(attr)

    command = cli.COMMANDS[name]
    ns = Recording(**vars(cli.build_parser().parse_args([name, *_FLAG_READ_RUNS[name]])))
    assert command.run(ns, **command.resolve(ns)) in (cli.EXIT_OK, cli.EXIT_CONVERGENCE)
    declared = {flag[2:].replace("-", "_") for flag, _ in command.flags}
    assert declared - {"config", "out", "validate"} - reads == set()


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_a_manifest_reloads_to_the_same_manifest(tmp_path, capsys, name):
    _write_data_csv(tmp_path)
    assert run_cli([name, *_FLAG_READ_RUNS[name], "--validate"], tmp_path) == cli.EXIT_OK
    manifest = json.loads(capsys.readouterr().out)["manifest"]
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    assert run_cli(["--config", "m.json", "--validate"], tmp_path) == cli.EXIT_OK
    reloaded = json.loads(capsys.readouterr().out)["manifest"]
    assert reloaded.pop("config") == "m.json" and manifest.pop("config") is None
    assert reloaded == manifest


def test_config_text_values_parse_as_the_command_line(tmp_path):
    flags = ["--x-range", "0.2", "0.4", "--points", "2", "--levels", "2", "--n-max", "16"]
    assert run_cli(["spectrum", *flags, "--out", "flags"], tmp_path) == cli.EXIT_OK
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"command": "spectrum", "x_range": ["0.2", "0.4"], "points": "2", "levels": 2,
         "n_max": "16", "out": "text"}))
    assert run_cli(["--config", "cfg.json"], tmp_path) == cli.EXIT_OK
    assert (tmp_path / "text.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()
    from_flags, from_text = (json.loads((tmp_path / f"{out}_manifest.json").read_text())
                             for out in ("flags", "text"))
    for manifest in (from_flags, from_text):
        del manifest["config"], manifest["out"]
    assert from_text == from_flags and from_text["x_range"] == [0.2, 0.4]


def _raise_on_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


@pytest.mark.parametrize("args,key", [
    (["--delta", "0", "--L", "50", "--h", "0.2", "--k", "2"], "ratio_plateau"),
    (["--delta", "3", "--k", "3", "--check-hc", "--n-max", "2048"], "hamiltonian_check"),
], ids=["no-bound-state", "check-hc"])
def test_collapse1d_report_is_strict_json(tmp_path, args, key):
    # a non-finite float is written as null, which every RFC 8259 reader accepts
    assert run_cli(["collapse1d", *args, "--out", "c"], tmp_path) == cli.EXIT_OK
    report = json.loads((tmp_path / "c_report.json").read_text(), parse_constant=_raise_on_constant)
    if key == "ratio_plateau":
        assert report["ratio_plateau"] is None and report["refinement"] == [None, None]
    else:
        assert report["hamiltonian_check"]["degeneracy_gap"] is None


def test_missing_g_is_config_error(tmp_path, capsys):
    code = run_cli(["wigner", "--r", "0.25"], tmp_path)
    assert code == cli.EXIT_CONFIG
    assert "required" in capsys.readouterr().err


def test_the_module_runs_as_a_script(monkeypatch, capsys):
    # python -m tpqrm.cli exits with main's code; run in this process, over a fresh copy of
    # the module (runpy warns that the package already holds one)
    monkeypatch.setattr(sys, "argv", ["tpqrm", "spectrum", "--validate"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as stop:
            runpy.run_module("tpqrm.cli", run_name="__main__")
    assert stop.value.code == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["manifest"]["command"] == "spectrum"
