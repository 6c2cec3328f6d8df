import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

METRICS = [{"name": "pass_s", "better": "lower", "bound": 0.25},
           {"name": "ok_frac", "better": "higher", "bound": 0.01}]


def _side(pass_s: list[float], ok_frac: list[float]) -> dict:
    return {"end_to_end": {"pass_s": {**bench.spread(pass_s), "runs": pass_s},
                           "ok_frac": {**bench.spread(ok_frac), "runs": ok_frac}}}


PARENT = _side([0.30, 0.34, 0.36, 0.32, 0.35, 0.36, 0.31, 0.37, 0.35, 0.33], [1.0] * 10)


def test_a_clear_gain_holds_and_stays_within_bound():
    change = _side([0.14, 0.15, 0.13, 0.15, 0.16, 0.14, 0.15, 0.14, 0.13, 0.15], [1.0] * 10)
    got = bench.compare(PARENT, change, METRICS)["pass_s"]
    assert got["wins"] == 10 and got["pairs"] == 10
    assert got["before_iqr"] == pytest.approx(0.3575 - 0.3225)
    assert got["median_ratio"] == pytest.approx(0.145 / 0.345)
    assert got["gain_holds"] and got["within_bound"]


def test_eight_wins_in_ten_do_not_hold_a_gain():
    change = _side([0.14, 0.15, 0.13, 0.15, 0.16, 0.14, 0.15, 0.14, 0.40, 0.40], [1.0] * 10)
    got = bench.compare(PARENT, change, METRICS)["pass_s"]
    assert got["wins"] == 8 and not got["gain_holds"] and got["within_bound"]


def test_a_median_shift_inside_the_parent_iqr_does_not_hold_a_gain():
    # better on every pair, by less than the parent's quartile spread
    change = _side([x - 0.01 for x in PARENT["end_to_end"]["pass_s"]["runs"]], [1.0] * 10)
    got = bench.compare(PARENT, change, METRICS)["pass_s"]
    assert got["wins"] == 10 and not got["gain_holds"] and got["within_bound"]


def test_the_bound_is_relative_and_faces_the_worse_direction():
    slower = _side([x * 1.3 for x in PARENT["end_to_end"]["pass_s"]["runs"]], [0.98] * 10)
    got = bench.compare(PARENT, slower, METRICS)
    assert not got["pass_s"]["within_bound"] and not got["pass_s"]["gain_holds"]
    assert not got["ok_frac"]["within_bound"]  # 2% lower against a 1% bound
    edge = _side([x * 1.2 for x in PARENT["end_to_end"]["pass_s"]["runs"]], [0.995] * 10)
    got = bench.compare(PARENT, edge, METRICS)
    assert got["pass_s"]["within_bound"] and got["ok_frac"]["within_bound"]


def test_minor_faults_are_counted_per_pass_of_each_run(monkeypatch, tmp_path):
    # the RUSAGE_CHILDREN delta around run.py, over the passes its result file lists
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    (out / "collapse-point-seed3-trace0.json").write_text(
        json.dumps({"machine": {"seed": 3}, "passes": [[0.5, 0.5]] * 4}))
    faults = iter([1000, 41000])
    monkeypatch.setattr(bench.resource, "getrusage",
                        lambda who: SimpleNamespace(ru_minflt=next(faults)))
    summary = {"correct": True, "metrics": {"pass_s": {"value": 0.5, "unit": "s"}}}
    monkeypatch.setattr(bench.subprocess, "run",
                        lambda *a, **k: SimpleNamespace(stdout="log\n" + json.dumps(summary)))
    run = bench.run_perfbench(tmp_path, "collapse-point", 3, 10.0, trace=0)
    assert run["minflt_per_pass"] == 10000.0 and run["machine"] == {"seed": 3}

    runs = [{**run, "minflt_per_pass": f} for f in (9000.0, 10000.0, 30000.0)]
    got = bench.summarize(runs, {"metrics": {}}, ["pass_s"])
    assert got["minflt_per_pass"]["median"] == 10000.0
    assert got["minflt_per_pass"]["runs"] == [9000.0, 10000.0, 30000.0]
    assert "minflt_per_pass" not in got["end_to_end"]


def test_src_lines_is_the_wc_total_of_the_package(tmp_path):
    package = tmp_path / "src" / "tpqrm"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no final newline, which wc -l does not count
    (package / "notes.txt").write_text("not\ncounted\n")
    assert bench.src_lines(tmp_path) == 2


def test_each_checkout_records_its_src_line_count(monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}], "run_seconds": 1, "end_to_end": METRICS}))
    for label, source in (("parent", "a\nb\nc\n"), ("change", "a\n")):
        (tmp_path / label / "perfbench").mkdir(parents=True)
        (tmp_path / label / "perfbench" / "run.py").write_text("")
        (tmp_path / label / "src" / "tpqrm").mkdir(parents=True)
        (tmp_path / label / "src" / "tpqrm" / "m.py").write_text(source)
    metrics = {"pass_s": {"value": 0.5, "unit": "s"}, "ok_frac": {"value": 1.0, "unit": "frac"}}
    run = {"correct": True, "machine": {"seed": 0}, "minflt_per_pass": 0.0, "metrics": metrics}
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "run_perfbench", lambda *args, **kwargs: run)
    monkeypatch.setattr(sys, "argv", ["bench.py", "--pr", "t", "--checkout",
                                      f"parent={tmp_path / 'parent'}", "--checkout",
                                      f"change={tmp_path / 'change'}"])
    assert bench.main() == 0
    report = json.loads((tmp_path / "BENCH_t.json").read_text())["checkouts"]
    lines = {label: side["src_lines"] for label, side in report.items()}
    assert lines == {"parent": 3, "change": 1}
