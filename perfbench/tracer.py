"""In-memory spans around the library's layer boundaries, for the traced run only.

A *span* wraps a public library function: it records name, start, end, its
parent span and the point (request) it serves.  A *leaf* wraps a hot entry
point (a scipy/LAPACK call or a tiny kernel) and is aggregated under the
enclosing span as a count, a total time and, for tridiagonal solves, the
number of rows, instead of producing one span per call.

Wrappers replace module attributes of the ``tpqrm`` package, so calls made
inside the library are seen too.  ``Tracer.installed`` restores every
original on exit; ``installed_wrappers`` lets the untraced run prove that
none is left behind.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

_MARK = "__perfbench_wrapper__"

# (defining module, function): public library functions traced as spans.
SPANS = [
    ("ed", "ed_spectrum"),
    ("ed", "ground_state_block"),
    ("ed", "ed_ground_observables"),
    ("ed", "qfi_spectral"),
    ("ed", "_assert_cross_parity_selection_rule"),
    ("ed", "qfi_fidelity_oracle"),
    ("ed", "lowest_level"),
    ("ed", "wigner_grid"),
    ("ed", "conditional_photon_state"),
    ("ed", "squeezed_vacuum_coeffs"),
    ("ed", "squeezed_frame_spectrum"),
    ("aa", "aa_matrix"),
    ("specfun", "squeeze_matrix"),
    ("specfun", "squeeze_element"),
    ("quench", "kz_sweep"),
    ("quench", "propagate"),
    ("quench", "ground_energy_final"),
    ("collapse1d", "bound_states"),
    ("collapse1d", "collapse_hamiltonian_check"),
    ("analysis", "fit_powerlaw"),
    ("analysis", "fit_quadratic_gap"),
]

# (importing module, name, counts rows): hot calls aggregated under their span.
# scipy entry points are named after the module that imports them, so
# ed.eigh_tridiagonal and collapse1d.eigh_tridiagonal are separate layers.
LEAVES = [
    ("ed", "eigh_tridiagonal", True),
    ("ed", "eig", False),
    ("ed", "eval_genlaguerre", False),
    ("ed", "build_parity_block", False),
    ("specfun", "legendre_log_table", False),
    ("quench", "zgtsv", False),
    ("quench", "eigh_tridiagonal", True),
    ("collapse1d", "eigh_tridiagonal", True),
]

# Truncation-doubling drivers whose direct eigh_tridiagonal calls are rungs.
DOUBLING = ("ed.ed_spectrum", "ed.ground_state_block", "ed.qfi_spectral")

MODULES = ("ed", "aa", "specfun", "quench", "collapse1d", "analysis")

# Every per-layer metric, in the order BENCHMARK.json lists them.
LAYER_METRICS = [
    ("ed.build_parity_block.calls", "count"),
    ("ed.build_parity_block.self_s", "s"),
    ("ed.eigh_tridiagonal.calls", "count"),
    ("ed.eigh_tridiagonal.rows", "count"),
    ("ed.eigh_tridiagonal.self_s", "s"),
    ("ed.ed_spectrum.self_s", "s"),
    ("ed.ground_state_block.self_s", "s"),
    ("ed.qfi_spectral.self_s", "s"),
    ("ed.qfi_fidelity_oracle.self_s", "s"),
    ("ed.lowest_level.self_s", "s"),
    ("ed.doubling.useful_frac", "frac"),
    ("ed.wigner_grid.self_s", "s"),
    ("ed.eval_genlaguerre.calls", "count"),
    ("ed.eval_genlaguerre.self_s", "s"),
    ("ed.squeezed_frame_spectrum.self_s", "s"),
    ("ed.eig.calls", "count"),
    ("ed.eig.self_s", "s"),
    ("aa.aa_matrix.calls", "count"),
    ("aa.aa_matrix.self_s", "s"),
    ("specfun.legendre_log_table.calls", "count"),
    ("specfun.legendre_log_table.self_s", "s"),
    ("specfun.squeeze_matrix.self_s", "s"),
    ("specfun.squeeze_element.calls", "count"),
    ("quench.propagate.self_s", "s"),
    ("quench.zgtsv.calls", "count"),
    ("quench.zgtsv.self_s", "s"),
    ("quench.step_us", "us"),
    ("quench.useful_frac", "frac"),
    ("quench.ground_energy_final.self_s", "s"),
    ("quench.eigh_tridiagonal.rows", "count"),
    ("collapse1d.bound_states.calls", "count"),
    ("collapse1d.bound_states.self_s", "s"),
    ("collapse1d.eigh_tridiagonal.rows", "count"),
    ("collapse1d.eigh_tridiagonal.self_s", "s"),
    ("collapse1d.collapse_hamiltonian_check.self_s", "s"),
    ("analysis.fit_powerlaw.calls", "count"),
    ("analysis.fit_powerlaw.self_s", "s"),
    ("analysis.fit_quadratic_gap.self_s", "s"),
    ("trace.overhead_frac", "frac"),
]


class Span:
    __slots__ = ("id", "parent", "point", "name", "start", "end", "child_s", "leaves", "extra")

    def __init__(self, span_id, parent, point, name):
        self.id = span_id
        self.parent = parent
        self.point = point
        self.name = name
        self.start = time.perf_counter()
        self.end = None
        self.child_s = 0.0
        self.leaves = {}  # name -> [calls, seconds, rows, last_rows]
        self.extra = {}

    @property
    def self_s(self) -> float:
        leaf_s = sum(agg[1] for agg in self.leaves.values())
        return (self.end - self.start) - self.child_s - leaf_s

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "point": self.point,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
            "leaves": self.leaves,
            **self.extra,
        }


def _is_wrapper(obj) -> bool:
    return callable(obj) and getattr(obj, _MARK, False)


def installed_wrappers(tp) -> list[str]:
    """Names of library attributes that are currently tracing wrappers."""
    found = []
    for mod_name in ("",) + MODULES:
        mod = getattr(tp, mod_name) if mod_name else tp
        for attr, obj in vars(mod).items():
            if _is_wrapper(obj):
                found.append(f"{mod.__name__}.{attr}")
    return found


class Tracer:
    """Span recorder; one instance per traced run, spans kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._in_leaf = False
        self._point = None
        self._patched = []  # (module, attr, original)

    # -- recording -----------------------------------------------------
    def _open(self, name) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._point, name)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    @contextmanager
    def point(self, key: str):
        """Root span of one benchmark point; its spans share the point's key."""
        self._point = key
        span = self._open("point")
        try:
            yield span
        finally:
            self._close(span)
            self._point = None

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if name == "quench.propagate":
                    protocol = args[0] if args else kwargs["protocol"]
                    span.extra["reported_steps"] = max(1, int(round(protocol.tau_q / result.dt)))
                return result
            finally:
                self._close(span)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _leaf_wrapper(self, name, fn, rows):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a leaf reached from inside another leaf (legendre_log_table's own
            # negative-order recursion) is already covered by the outer timing
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._in_leaf = False
                agg = self._stack[-1].leaves.setdefault(name, [0, 0.0, 0, 0])
                agg[0] += 1
                agg[1] += elapsed
                if rows:
                    n = len(args[0])
                    agg[2] += n
                    agg[3] = n

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- installation --------------------------------------------------
    def _patch(self, tp, mod_name, attr, wrapper_for):
        home = getattr(tp, mod_name)
        original = getattr(home, attr)
        wrapper = wrapper_for(original)
        # library functions are replaced wherever the package binds them;
        # a scipy import is replaced only in the module named
        owners = [home]
        if (getattr(original, "__module__", None) or "").startswith("tpqrm"):
            owners = [tp] + [getattr(tp, m) for m in MODULES]
        for mod in owners:
            if vars(mod).get(attr) is original:
                setattr(mod, attr, wrapper)
                self._patched.append((mod, attr, original))

    @contextmanager
    def installed(self, tp):
        """Wrap every traced attribute of the package; restore them on exit."""
        if installed_wrappers(tp):
            raise RuntimeError("tracing wrappers already installed")
        try:
            for mod_name, attr in SPANS:
                name = f"{mod_name}.{attr}"
                self._patch(tp, mod_name, attr, lambda fn, n=name: self._span_wrapper(n, fn))
            for mod_name, attr, rows in LEAVES:
                name = f"{mod_name}.{attr}"
                self._patch(
                    tp, mod_name, attr, lambda fn, n=name, r=rows: self._leaf_wrapper(n, fn, r)
                )
            yield self
        finally:
            for mod, attr, original in reversed(self._patched):
                setattr(mod, attr, original)
            self._patched.clear()
        left = installed_wrappers(tp)
        if left:
            raise RuntimeError(f"tracing wrappers left installed: {left}")

    # -- metrics -------------------------------------------------------
    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass totals for every name in LAYER_METRICS except trace.overhead_frac.

        A layer the workload never reaches reads 0.
        """
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        rows: dict[str, int] = {}
        doubling_fracs = []
        reported_steps = 0
        propagate_steps = 0
        for span in self.spans:
            calls[span.name] = calls.get(span.name, 0) + 1
            self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
            for leaf, (n_calls, secs, n_rows, last_rows) in span.leaves.items():
                calls[leaf] = calls.get(leaf, 0) + n_calls
                self_s[leaf] = self_s.get(leaf, 0.0) + secs
                rows[leaf] = rows.get(leaf, 0) + n_rows
            rungs = span.leaves.get("ed.eigh_tridiagonal")
            if span.name in DOUBLING and rungs:
                doubling_fracs.append(rungs[3] / rungs[2])
            if span.name == "quench.propagate":
                reported_steps += span.extra.get("reported_steps", 0)
                propagate_steps += span.leaves.get("quench.zgtsv", [0])[0]

        out = {}
        for metric, _unit in LAYER_METRICS:
            layer, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls.get(layer, 0) / passes
            elif stat == "self_s":
                out[metric] = self_s.get(layer, 0.0) / passes
            elif stat == "rows":
                out[metric] = rows.get(layer, 0) / passes
        out["ed.doubling.useful_frac"] = (
            statistics.fmean(doubling_fracs) if doubling_fracs else 0.0
        )
        steps = calls.get("quench.zgtsv", 0)
        stepping_s = self_s.get("quench.propagate", 0.0) + self_s.get("quench.zgtsv", 0.0)
        out["quench.step_us"] = 1e6 * stepping_s / steps if steps else 0.0
        out["quench.useful_frac"] = reported_steps / propagate_steps if propagate_steps else 0.0
        return out

    def dump(self) -> list[dict]:
        return [span.to_dict() for span in self.spans]
