"""One measuring process: set up, run passes in a closed loop, check, report.

Started by run.py, never by hand.  It imports the library, makes one
warm-up call into each layer the workload uses and notes the monotonic
clock (run.py measures set-up from the moment it started this process).
With --setup-only it stops there.  Otherwise it runs passes until
--seconds have elapsed, checks every point, and prints one JSON record as
its last line of output.

With --trace 1 it alternates traced and untraced passes, so the tracing
overhead is measured in the same process; the spans are kept in memory
and written to --out when the run ends.

--record rewrites this workload's entry in references.json from one
pass at seed 0 (run it only on a commit whose outputs are trusted).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _blas_threads() -> dict:
    """Thread count each bundled OpenBLAS reports, keyed by library file."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*.so"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    out[Path(path).name] = fn()
                    break
    return out


def _library_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "TPQRM_THREADS")},
    }


def _timed_pass(name, tp, plan, gate_errors, tracer=None):
    rec = workloads.Recorder(gate_errors, tracer)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    workloads.run_pass(name, tp, plan, rec)
    return [time.perf_counter() - wall0, time.process_time() - cpu0], rec.points


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    import tpqrm as tp
    from tpqrm.errors import CollapseMappingError, ConvergenceError

    gate_errors = (ConvergenceError, CollapseMappingError)
    workloads.warm_up(args.workload, tp)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    left = tracing.installed_wrappers(tp)
    if left:
        raise RuntimeError(f"tracing wrappers installed before the run: {left}")

    if args.record:
        _, points = _timed_pass(args.workload, tp, workloads.make_plan(args.workload, 0),
                                gate_errors)
        with open(check.REFERENCES) as fh:
            refs = json.load(fh)
        refs[args.workload] = {pt.key: check.reference_entry(pt) for pt in points}
        with open(check.REFERENCES, "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(json.dumps(check.judge(points, refs[args.workload])))
        return 0

    plan = workloads.make_plan(args.workload, args.seed)
    references = check.load_references(args.workload)
    passes, traced, points = [], [], []
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        # traced first: the first pass after warm-up runs a few percent
        # slower, and the untraced baseline should not carry that
        if tracer is not None:
            with tracer.installed(tp):
                timing, pts = _timed_pass(args.workload, tp, plan, gate_errors, tracer)
            traced.append(timing)
            points += pts
        timing, pts = _timed_pass(args.workload, tp, plan, gate_errors)
        passes.append(timing)
        points += pts
        if time.perf_counter() - start >= args.seconds:
            break
    left = tracing.installed_wrappers(tp)
    if left:
        raise RuntimeError(f"tracing wrappers left installed: {left}")

    record = {
        "ready": ready,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "library": _library_record(),
        **check.judge(points, references),
    }
    if tracer is not None:
        layer = tracer.layer_metrics(len(traced))
        layer["trace.overhead_frac"] = (
            statistics.median(t[0] for t in traced) / statistics.median(p[0] for p in passes)
            - 1.0
        )
        record["traced_passes"] = traced
        record["layer"] = layer
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            with open(args.out, "w") as fh:
                json.dump(tracer.dump(), fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
