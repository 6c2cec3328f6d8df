"""Tests of the benchmark's own machinery: the checker and the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

tp = pytest.importorskip("tpqrm")


@pytest.mark.parametrize("workload", sorted(workloads.PASSES))
def test_checker_catches_a_perturbed_output(workload):
    refs = check.load_references(workload)
    assert refs, f"no references recorded for {workload}"
    key, outputs = sorted(refs.items())[0]
    name, values = sorted(outputs.items())[0]
    tol = workloads.Tol("abs", 1e-10)

    pt = workloads.Point(key, pinned=True)
    pt.output(name, values, tol)
    assert check.compare(pt, refs[key]) == []
    assert check.judge([pt], refs)["wrong"] == 0

    bumped = np.asarray(values, dtype=float)
    bumped[0] += 1e-6
    pt.output(name, bumped, tol)
    assert check.compare(pt, refs[key])
    verdict = check.judge([pt], refs)
    assert (verdict["failed"], verdict["wrong"]) == (1, 1)


def test_seed_zero_pass_matches_references_and_perturbation_is_caught():
    plan = workloads.make_plan("collapse-point", 0)
    refs = check.load_references("collapse-point")
    rec = workloads.Recorder((tp.errors.ConvergenceError,))
    # one gap-opening point, computed as the workload computes it
    with rec.point("gap/r=0.25/5") as pt:
        g_c, delta_c = tp.model.critical_params(0.25)
        offset = plan["offsets", 0.25][0][5]
        p = tp.model.ModelParams(delta=delta_c - offset, g=g_c, r=0.25)
        gap = abs(tp.ed.lowest_level(p, +1, 65536) - tp.ed.lowest_level(p, -1, 65536))
        half = abs(tp.ed.lowest_level(p, +1, 32768) - tp.ed.lowest_level(p, -1, 32768))
        pt.output("gaps", [gap, half], workloads.GAP_FIXED_N)
    assert check.judge(rec.points, refs)["wrong"] == 0

    pt.output("gaps", [gap * (1 + 1e-5), half], workloads.GAP_FIXED_N)
    verdict = check.judge(rec.points, refs)
    assert verdict["wrong"] == 1
    assert "reference: gaps" in verdict["failures"][0]["reasons"][0]


def test_a_raising_point_is_recorded_as_wrong_and_the_pass_goes_on():
    rec = workloads.Recorder((tp.errors.ConvergenceError,))
    with rec.point("gate") as pt:
        raise tp.errors.ConvergenceError("not converged")
    with rec.point("bug") as pt:
        pt.output("x", 1.0, workloads.EXACT)
        raise ZeroDivisionError
    verdict = check.judge(rec.points, {"bug": {"x": [1.0]}})
    assert (verdict["attempted"], verdict["failed"], verdict["wrong"]) == (2, 2, 1)
    assert "ZeroDivisionError" in verdict["failures"][1]["reasons"][0]


def test_moved_points_skip_references_unless_a_moved_tolerance_is_given():
    pt = workloads.Point("x", pinned=False)
    pt.output("a", 1.0, workloads.Tol("abs", 1e-12))
    pt.output("b", 1.0, workloads.Tol("abs", 1e-12), workloads.Tol("abs", 0.1))
    assert check.compare(pt, {"a": [5.0], "b": [1.05]}) == []
    assert check.compare(pt, {"a": [5.0], "b": [1.5]})
    pt.output("b", float("nan"), workloads.Tol("abs", 1e-12), workloads.Tol("abs", 0.1))
    assert check.compare(pt, {"a": [5.0], "b": [1.0]})


def test_plan_is_fixed_by_the_seed_and_keeps_window_endpoints():
    a = workloads.make_plan("critical-sweep", 7)
    b = workloads.make_plan("critical-sweep", 7)
    zero = workloads.make_plan("critical-sweep", 0)
    xs, pinned = a["gaps_a", 0.25]
    np.testing.assert_array_equal(xs, b["gaps_a", 0.25][0])
    assert pinned[0] and pinned[-1] and not pinned[1:-1].any()
    assert zero["gaps_a", 0.25][1].all()
    np.testing.assert_array_equal(zero["gaps_a", 0.25][0], np.linspace(1.5, 3.0, 9))


def test_tracer_restores_every_attribute_and_records_spans():
    originals = {name: getattr(tp.ed, name) for name in ("ed_spectrum", "eigh_tridiagonal")}
    tracer = tracing.Tracer()
    p = tp.model.ModelParams(delta=0.6, g=0.1, r=0.25)
    with tracer.installed(tp):
        assert tracing.installed_wrappers(tp)
        with tracer.point("p0"):
            tp.ed.ed_spectrum(p, tp.model.SectorSpec(0.25, -1), n_max=8, k=2, n_max_ceiling=32)
    assert tracing.installed_wrappers(tp) == []
    for name, fn in originals.items():
        assert getattr(tp.ed, name) is fn
    assert tp.ed_spectrum is originals["ed_spectrum"]

    layer = tracer.layer_metrics(passes=1)
    assert layer["ed.eigh_tridiagonal.calls"] == 2  # rungs 8 and 16; converged at 16
    assert layer["ed.eigh_tridiagonal.rows"] == 8 + 16
    assert layer["ed.doubling.useful_frac"] == pytest.approx(16 / 24)
    assert layer["ed.wigner_grid.self_s"] == 0.0
    spans = tracer.dump()
    assert {s["point"] for s in spans} == {"p0"}
    assert all(s["self_s"] >= 0 for s in spans)


def test_tracer_restores_attributes_when_the_pass_raises():
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed(tp):
            1 / 0
    assert tracing.installed_wrappers(tp) == []
