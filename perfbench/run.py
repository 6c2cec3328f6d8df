"""Benchmark of the tpqrm library: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload critical-sweep --seed 0 --seconds 10 --trace 0

Run from the repository root.  With --trace 0 it prints every end-to-end
metric with its unit and the points that failed, and checks every point's
outputs; with --trace 1 it prints the per-layer metrics of a traced run
instead.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A result file with the
machine record goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("critical-sweep", "phase-space", "kz-quench", "collapse-point")
# Set-up-only processes started before and after the measuring one.  The
# machine's speed drifts over seconds, so samples spread over the whole run
# give a steadier median than samples taken back to back.
SETUP_PROBES = 2
DEADLINE_S = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
]


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("TPQRM_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py to completion; return (start time, its JSON record)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.monotonic()
    proc = subprocess.run(
        cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tpqrm").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine(seed: int, library: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **library,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "tpqrm" / "__init__.py").is_file():
        print(f"perfbench: library source not found under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def probe_setups() -> list[float]:
        if args.trace:
            return []
        out = []
        for _ in range(SETUP_PROBES):
            started, ready = _spawn([*common, "--setup-only"], deadline)
            out.append(ready["ready"] - started)
        return out

    setups = probe_setups()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    measure = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        measure += ["--out", str(OUT / f"{tag}-spans.json")]
    started, rec = _spawn(measure, deadline)
    setups.append(rec["ready"] - started)
    setups += probe_setups()

    walls = [p[0] for p in rec["passes"]]
    cpus = [p[1] for p in rec["passes"]]
    attempted, failed = rec["attempted"], rec["failed"]
    if args.trace:
        metrics = {name: {"value": rec["layer"][name], "unit": unit}
                   for name, unit in LAYER_METRICS}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": rec["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    machine = _machine(args.seed, rec["library"])
    result = {
        "workload": args.workload,
        "machine": machine,
        "setup_samples_s": setups,
        "passes": rec["passes"],
        "traced_passes": rec.get("traced_passes"),
        "attempted": attempted,
        "failed": failed,
        "wrong": rec["wrong"],
        "failures": rec["failures"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(walls)}" + (f" + {len(rec['traced_passes'])} traced" if args.trace else ""))
    print(f"machine  {machine['nproc']} cpu ({machine['cpu_model']}), python {machine['python']}, "
          f"numpy {machine['numpy']}, scipy {machine['scipy']}, {machine['blas']}, "
          f"blas threads {machine['blas_threads']}, commit {machine['git_commit']}")
    for name, m in metrics.items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  pass_s samples {len(walls)}, setup_s samples {len(setups)}")
    print(f"  fail_frac {failed / attempted:.4f} ({failed} failed of {attempted} attempted, "
          f"{rec['wrong']} wrong)")
    seen = set()
    for failure in rec["failures"]:
        if failure["point"] in seen:
            continue
        seen.add(failure["point"])
        print(f"  failed {failure['point']}: {'; '.join(failure['reasons'])}")
    print(json.dumps({
        "correct": rec["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
