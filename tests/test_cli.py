import argparse
import json
import math

import numpy as np
import pytest

from tpqrm import cli


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
    assert "error: need 0 < h < L" in payload["diagnostics"]


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
    # a manifest value never passes argparse's type=, so the resolve step checks it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "qfi", "k_states": 0, "points": 2, "n_max": 16}))
    assert run_cli(["--config", str(cfg), "--validate"], tmp_path) == cli.EXIT_CONFIG
    assert "--k-states=0 must be >= 1" in capsys.readouterr().out
    assert run_cli(["--config", str(cfg), "--out", "o"], tmp_path) == cli.EXIT_CONFIG
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nonsense": 1}))
    code = run_cli(["spectrum", "--config", str(cfg)], tmp_path)
    assert code == cli.EXIT_CONFIG
    assert "unknown config keys" in capsys.readouterr().err


def test_wigner_command(tmp_path):
    code = run_cli(["wigner", "--r", "0.25", "--g-over-gc", "0.5", "--n-max", "64",
                    "--grid-points", "61", "--out", "w"], tmp_path)
    assert code == cli.EXIT_OK
    data = np.genfromtxt(tmp_path / "w.csv", delimiter=",", names=True)
    report = json.loads((tmp_path / "w_report.json").read_text())
    assert abs(report["normalization"] - 1.0) < 1e-3
    assert len(data) == 61 * 61


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
    assert set(data.dtype.names) == {"t", "g", "energy", "ground_overlap"}


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


def test_collapse1d_command(tmp_path):
    code = run_cli(["collapse1d", "--delta", "3.0", "--L", "200", "--h", "0.05",
                    "--k", "4", "--out", "c1"], tmp_path)
    assert code == cli.EXIT_OK
    data = np.genfromtxt(tmp_path / "c1.csv", delimiter=",", names=True)
    assert len(data) == 4
    assert data["kappa4"][0] == pytest.approx(1.2576, rel=1e-3)
    report = json.loads((tmp_path / "c1_report.json").read_text())
    assert 0.09 < report["ratio_plateau"] < 0.13


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


def test_unknown_subcommand_fails():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == cli.EXIT_CONFIG  # 2 is reserved for convergence failure
    # a removed flag is a usage error too, also where it prefixes a declared one
    for args in (["qfi", "--tol", "1e-9"], ["gap-opening", "--n-max", "64"],
                 ["collapse1d", "--r", "0.5"], ["spectrum", "--points", "abc"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == cli.EXIT_CONFIG, args


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
    ["gap-opening", "--r", "0.25", "--window", "0.15", "0.2", "--points", "2",
     "--n-max-final", "1"],
    ["qfi", "--k-states", "0", "--points", "2", "--n-max", "16"],
    ["wigner", "--g-over-gc", "0.5", "--grid-points", "1"],
    ["quench", "--r", "0.25", "--tau-range", "1", "10", "--tau-points", "0"],
    ["quench", "--r", "0.25", "--gf", "0.5", "--tau-list", "5", "--samples", "-3", "--n-max",
     "32", "--dt", "0.05"],
    ["gap-opening", "--r", "0.25", "--window", "0.15", "0.2", "--points", "0"],
])
def test_validate_agrees_with_the_run(tmp_path, capsys, args):
    validate = run_cli(args + ["--validate"], tmp_path)
    payload = json.loads(capsys.readouterr().out)
    run = run_cli(args + ["--out", "o"], tmp_path)
    assert validate == run
    assert (validate == cli.EXIT_CONFIG) == any(d.startswith("error:") for d in payload["diagnostics"])
    if run == cli.EXIT_CONFIG:  # rejected before any computation or output
        assert list(tmp_path.iterdir()) == []


_FLAG_READ_RUNS = {
    "spectrum": ["--x-range", "0.2", "0.4", "--points", "2", "--levels", "2", "--n-max", "16"],
    "gap-scan": ["--x-range", "0.2", "0.4", "--points", "2", "--n-max", "16"],
    "observables": ["--x-range", "0.2", "0.4", "--points", "2", "--n-max", "16"],
    "qfi": ["--x-range", "0.2", "0.4", "--points", "2", "--n-max", "16", "--k-states", "4",
            "--oracle"],
    "wigner": ["--r", "0.25", "--g-over-gc", "0.3", "--n-max", "16", "--grid-points", "21"],
    "quench": ["--r", "0.25", "--gf", "0.5", "--tau-range", "2", "2", "--tau-points", "1",
               "--n-max", "16", "--dt", "0.05", "--samples", "2"],
    "collapse1d": ["--delta", "3.0", "--L", "50", "--h", "0.2", "--k", "2", "--check-hc",
                   "--n-max", "64"],
    "fit": ["--input", "data.csv", "--xcol", "u", "--ycol", "y", "--window", "0", "1"],
    "gap-opening": ["--r", "0.25", "--window", "0.15", "0.2", "--points", "2",
                    "--n-max-final", "64"],
}


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_every_declared_flag_is_read(tmp_path, monkeypatch, name):
    u = np.geomspace(1e-3, 1e-1, 6)
    (tmp_path / "data.csv").write_text("u,y\n" + "".join(f"{a:.17g},{a**2:.17g}\n" for a in u))
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



def test_missing_g_is_config_error(tmp_path, capsys):
    code = run_cli(["wigner", "--r", "0.25"], tmp_path)
    assert code == cli.EXIT_CONFIG
    assert "required" in capsys.readouterr().err
