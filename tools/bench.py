"""Run perfbench on one or more checkouts and write BENCH_<pr>.json.

    python3 tools/bench.py --pr 9 --checkout parent=/path/to/parent --checkout change=.

The workloads, the run length and the end-to-end metrics come from
BENCHMARK.json.  Each checkout runs its own perfbench/run.py against its
own src/.  For every workload and every seed 0-9, each checkout runs
once untraced, and the checkout that goes first alternates from one
seed to the next, so that drift in the machine's speed falls on both
sides.  Then each checkout runs once traced at seed 0.  The file is
written next to BENCHMARK.json.

BENCH_<pr>.json holds, per checkout: the machine record and commit that
run.py wrote, and per workload the median and quartiles of the five
end-to-end metrics over the untraced runs, every run's values, whether
every run was correct, and the traced per-layer metrics.  It also holds,
for information only, the minor page faults per pass of the untraced
runs: the faults of every process run.py waited for (its setup probes'
imports included), over the run's passes, and each checkout's
src/tpqrm line count (the total `wc -l src/tpqrm/*.py` prints).  With exactly
two checkouts it also compares the second checkout with the first, per
workload and metric: the seeds on which it did better, the ratio of the
medians, the first checkout's IQR, whether a claimed gain would hold (at
least nine wins in ten pairs, and medians that differ in the better
direction by more than the first checkout's IQR), and whether the second
median is within the metric's BENCHMARK.json bound.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)  # ten alternating pairs: the fewest that can back a claimed gain


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench/run.py run in checkout: its summary line, machine record and faults a pass."""
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True,
    )
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    result = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(result.read_text())
    summary["machine"] = record["machine"]
    summary["minflt_per_pass"] = faults / len(record["passes"])
    return summary


def src_lines(checkout: Path) -> int:
    """Newlines in checkout's src/tpqrm/*.py: the total `wc -l src/tpqrm/*.py` prints."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "tpqrm").glob("*.py"))


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], traced: dict, metrics: list[str]) -> dict:
    values = {m: [run["metrics"][m]["value"] for run in runs] for m in metrics}
    faults = [run["minflt_per_pass"] for run in runs]
    return {
        "seeds": [run["machine"]["seed"] for run in runs],
        "correct": all(run["correct"] for run in runs),
        "end_to_end": {m: {**spread(v), "unit": runs[0]["metrics"][m]["unit"], "runs": v}
                       for m, v in values.items()},
        "minflt_per_pass": {**spread(faults), "runs": faults},  # informational, not gated
        "per_layer": {m: entry["value"] for m, entry in traced["metrics"].items()},
    }


def compare(before: dict, after: dict, metrics: list[dict]) -> dict:
    """Per end-to-end metric (BENCHMARK.json entries): how `after` stands against `before`.

    A claimed gain holds when `after` does better on at least nine pairs
    in ten and its median beats `before`'s by more than `before`'s IQR.
    The bound is relative: `after`'s median may be worse than `before`'s
    by at most that fraction of it.
    """
    out = {}
    for spec in metrics:
        metric, lower, bound = spec["name"], spec["better"] == "lower", spec["bound"]
        b, a = before["end_to_end"][metric], after["end_to_end"][metric]
        wins = sum((x < y) if lower else (x > y) for x, y in zip(a["runs"], b["runs"]))
        pairs = len(a["runs"])
        iqr = b["q3"] - b["q1"]
        gain = b["median"] - a["median"] if lower else a["median"] - b["median"]
        limit = b["median"] * (1.0 + bound if lower else 1.0 - bound)
        out[metric] = {"wins": wins, "pairs": pairs,
                       "median_ratio": a["median"] / b["median"] if b["median"] else None,
                       "before_iqr": iqr,
                       "gain_holds": 10 * wins >= 9 * pairs and gain > iqr,
                       "within_bound": a["median"] <= limit if lower else a["median"] >= limit}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    ap.add_argument("--checkout", action="append", required=True, metavar="LABEL=DIR",
                    help="a checkout to measure; give it once per checkout, in order")
    args = ap.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    metrics = benchmark["end_to_end"]

    checkouts = {}
    for item in args.checkout:
        label, sep, path = item.partition("=")
        if not sep or not (Path(path) / "perfbench" / "run.py").is_file():
            ap.error(f"--checkout {item!r}: want LABEL=DIR with DIR/perfbench/run.py")
        checkouts[label] = Path(path).resolve()

    # informational, like minflt_per_pass: the package size the ROADMAP tracks
    report = {label: {"src_lines": src_lines(path), "workloads": {}}
              for label, path in checkouts.items()}
    for workload in workloads:
        runs = {label: [] for label in checkouts}
        for i, seed in enumerate(SEEDS):
            order = list(checkouts) if i % 2 == 0 else list(reversed(checkouts))
            for label in order:
                print(f"{workload} seed {seed}: {label}", file=sys.stderr, flush=True)
                runs[label].append(run_perfbench(checkouts[label], workload, seed, seconds,
                                                 trace=0))
        for label, path in checkouts.items():
            print(f"{workload} traced: {label}", file=sys.stderr, flush=True)
            traced = run_perfbench(path, workload, 0, seconds, trace=1)
            report[label]["machine"] = traced["machine"]
            report[label]["workloads"][workload] = summarize(
                runs[label], traced, [m["name"] for m in metrics])

    payload = {"seconds": seconds, "checkouts": report}
    if len(checkouts) == 2:
        before, after = (report[label]["workloads"] for label in checkouts)
        payload["compare"] = {w: compare(before[w], after[w], metrics) for w in workloads}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
