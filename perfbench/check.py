"""Correctness check of a pass's points against the seed-0 references.

A point *fails* when it raised, the program flagged it unconverged or it
missed its own gate, an invariant does not hold, or an output leaves its
reference tolerance.  It is *wrong* when it raised something other than a
convergence-gate error, broke an invariant, or left its reference
tolerance: a flagged point whose numbers still match is failed, not wrong.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).with_name("references.json")


def load_references(workload: str) -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh).get(workload, {})


def reference_entry(point) -> dict:
    """The outputs of one point as the references file stores them."""
    return {name: values for name, (values, _tol) in point.outputs.items()}


def compare(point, reference: dict | None) -> list[str]:
    """Mismatches of the point's outputs against its reference entry."""
    mismatches = []
    for name, (values, tol) in point.outputs.items():
        if tol is None:
            continue
        if reference is None or name not in reference:
            mismatches.append(f"{name}: no reference")
            continue
        got = np.asarray(values, dtype=float)
        ref = np.asarray(reference[name], dtype=float)
        if got.shape != ref.shape:
            mismatches.append(f"{name}: shape {got.shape} != reference {ref.shape}")
            continue
        bad = tol.exceeded(got, ref)
        if bad.any():
            worst = float(np.abs(got - ref)[bad].max())
            mismatches.append(
                f"{name}: {int(bad.sum())} value(s) off by up to {worst:.3e} "
                f"(tolerance {tol.kind} {tol.value:g})"
            )
    return mismatches


def judge(points, references: dict) -> dict:
    """Counts over the points and the reasons for every failure."""
    failures = []
    wrong = 0
    for pt in points:
        mismatches = [] if pt.error else compare(pt, references.get(pt.key))
        reasons = (
            ([f"raised {pt.error}"] if pt.error else [])
            + ([f"gate: {pt.gate_error}"] if pt.gate_error else [])
            + [f"flag: {msg}" for msg in pt.flags]
            + [f"invariant: {msg}" for msg in pt.violations]
            + [f"reference: {msg}" for msg in mismatches]
        )
        if reasons:
            failures.append({"point": pt.key, "reasons": reasons})
        if pt.error or pt.violations or mismatches:
            wrong += 1
    return {
        "attempted": len(points),
        "failed": len(failures),
        "wrong": wrong,
        "failures": failures,
    }
