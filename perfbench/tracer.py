"""Span recorder for the traced benchmark run.

Spans wrap each layer's entry point at its module attribute, in every
``bounded_catalan`` module that binds the same function object by name
(``from .state_system import build_system`` makes a second binding), so
a call is seen whichever module it goes through.  The recorder is
installed only inside a forked child, after the cold-start guard has
run, so untraced children run the unmodified program.

Each span records name, start, end, parent and thread.  A thread with
no open span (a ``table`` pool worker) parents its spans on the root
``cli`` span.  Self time is a span's duration minus the union of its
children's intervals, so overlapping pool workers are not subtracted
twice.  ``c_kp`` is called about a million times at m = 100, so it is a
"leaf": its calls are summed per (parent, thread) instead of being kept
one by one, which is exact because calls of one thread under one parent
never overlap and ``c_kp`` calls no other traced function.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

# (defining module, attribute, span name).  The span name is the layer's
# module plus a short entry-point name.
TARGETS = [
    ("core_combinatorics", "brute_force_count", "core_combinatorics.brute_force_count"),
    ("state_system", "build_system", "state_system.build_system"),
    ("polynomial_algebra", "rf_reduce", "polynomial_algebra.rf_reduce"),
    ("polynomial_algebra", "_solve_sparse_int", "polynomial_algebra.solve_sparse"),
    ("polynomial_algebra", "real_roots_positive", "polynomial_algebra.real_roots_positive"),
    ("polynomial_algebra", "series_coeffs", "polynomial_algebra.series_coeffs"),
    ("gf_solver", "dp_counts", "gf_solver.dp_counts"),
    ("gf_solver", "generating_function", "gf_solver.generating_function"),
    ("gf_solver", "recurrence", "gf_solver.recurrence"),
    ("growth_analysis", "component_radius", "growth_analysis.component_radius"),
    ("growth_analysis", "growth_constants", "growth_analysis.growth_constants"),
    (
        "growth_analysis",
        "dominant_pole_asymptotics",
        "growth_analysis.dominant_pole_asymptotics",
    ),
]
LEAF_TARGETS = [("core_combinatorics", "c_kp", "core_combinatorics.c_kp")]
ARPACK = "growth_analysis.arpack"
ROOT = "cli"

# Per-layer metrics: name -> unit.  Every traced run prints all of them;
# a layer a workload never reaches reads 0.
PER_LAYER = {
    "core_combinatorics.c_kp.calls": "count",
    "core_combinatorics.c_kp.self_s": "s",
    "core_combinatorics.brute_force_count.self_s": "s",
    "state_system.build_system.self_s": "s",
    "state_system.build_system.calls": "count",
    "state_system.builds_per_m": "ratio",
    "state_system.entries": "count",
    "growth_analysis.component_radius.self_s": "s",
    "growth_analysis.component_radius.calls": "count",
    "growth_analysis.arpack.calls": "count",
    "growth_analysis.arpack.failed": "count",
    "growth_analysis.arpack.s": "s",
    "growth_analysis.growth_constants.self_s": "s",
    "growth_analysis.dominant_pole_asymptotics.self_s": "s",
    "polynomial_algebra.real_roots_positive.self_s": "s",
    "polynomial_algebra.rf_reduce.self_s": "s",
    "polynomial_algebra.rf_reduce.calls": "count",
    "polynomial_algebra.solve_sparse.self_s": "s",
    "polynomial_algebra.solve_sparse.calls": "count",
    "polynomial_algebra.series_coeffs.self_s": "s",
    "gf_solver.dp_counts.self_s": "s",
    "gf_solver.dp_counts.calls": "count",
    "gf_solver.generating_function.self_s": "s",
    "gf_solver.recurrence.self_s": "s",
    "cli.self_s": "s",
    "cli.table.threads": "count",
    "trace.overhead_frac": "ratio",
}


def package_modules() -> list:
    """The imported modules of the bounded_catalan package."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "bounded_catalan" or name.startswith("bounded_catalan."))
    ]


def _rebind(obj, wrapper, extra_homes=()) -> None:
    """Replace every binding of ``obj`` in the package (and in ``extra_homes``)."""
    for mod in [*package_modules(), *extra_homes]:
        for attr, value in list(vars(mod).items()):
            if value is obj:
                setattr(mod, attr, wrapper)


class Recorder:
    """Spans of one command, kept in memory until ``summary``."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread)
        self.leaf: dict[tuple, list] = defaultdict(lambda: [0, 0.0])  # (name, parent, thread)
        self.build_ms: list[int] = []
        self.entries = 0
        self.arpack_failed = 0
        self.root_start = self.root_end = 0.0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]  # 0 is the root span
        return stack

    def span(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            sid = next(recorder._ids)
            parent = stack[-1]
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((sid, name, start, end, parent, threading.get_ident()))

        return traced

    def leaf_span(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell = recorder.leaf[(name, recorder._stack()[-1], threading.get_ident())]
                cell[0] += 1
                cell[1] += time.perf_counter() - start

        return traced

    def install(self) -> None:
        """Wrap every target in the package; call once, in the child."""
        import scipy.sparse.linalg as spla

        mods = {mod.__name__.rpartition(".")[2]: mod for mod in package_modules()}
        for module, attr, name in TARGETS:
            obj = getattr(mods.get(module), attr, None)
            if obj is not None:
                wrapper = self.span(name, obj)
                if name == "state_system.build_system":
                    wrapper = self._count_builds(wrapper)
                _rebind(obj, wrapper)
        for module, attr, name in LEAF_TARGETS:
            obj = getattr(mods.get(module), attr, None)
            if obj is not None:
                _rebind(obj, self.leaf_span(name, obj))
        _rebind(spla.eigs, self._arpack(self.span(ARPACK, spla.eigs)), extra_homes=[spla])

    def _count_builds(self, traced):
        recorder = self

        @functools.wraps(traced)
        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            recorder.build_ms.append(args[0] if args else kwargs["m"])
            recorder.entries += len(result.entries)
            return result

        return counted

    def _arpack(self, traced):
        recorder = self

        @functools.wraps(traced)
        def counted(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            except BaseException:
                recorder.arpack_failed += 1
                raise

        return counted

    def run_root(self, fn, *args):
        """Run the command as the root span."""
        self.root_start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.root_end = time.perf_counter()

    def summary(self, command: str) -> dict:
        """Per-layer totals of this command, small enough to pipe back."""
        spans = [*self.spans, (0, ROOT, self.root_start, self.root_end, None, None)]
        children: dict[int, list] = defaultdict(list)
        for sid, _, start, end, parent, _ in spans:
            if parent is not None:
                children[parent].append((start, end))
        leaf_by_parent: dict[int, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for (name, parent, _), (count, seconds) in self.leaf.items():
            leaf_by_parent[parent] += seconds
            calls[name] += count
            self_s[name] += seconds
            total_s[name] += seconds
        for sid, name, start, end, _, _ in spans:
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += end - start - _union(children[sid]) - leaf_by_parent[sid]
        pool = {
            thread
            for _, name, _, _, _, thread in self.spans
            if name == "growth_analysis.growth_constants"
        }
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "builds": len(self.build_ms),
            "distinct_m": len(set(self.build_ms)),
            "entries": self.entries,
            "arpack_failed": self.arpack_failed,
            "table_threads": len(pool) if command == "table" else 0,
        }


def _union(intervals: list) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def pass_layers(summaries: list[dict]) -> dict:
    """Per-layer metrics of one pass from its commands' summaries."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for s in summaries:
        for key, value in s["calls"].items():
            calls[key] += value
        for key, value in s["self_s"].items():
            self_s[key] += value
        for key, value in s["total_s"].items():
            total_s[key] += value
    builds = sum(s["builds"] for s in summaries)
    distinct = sum(s["distinct_m"] for s in summaries)
    out = {}
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "self_s":
            out[metric] = self_s[layer]
        elif stat == "calls":
            out[metric] = calls[layer]
    out["state_system.builds_per_m"] = builds / distinct if distinct else 0.0
    out["state_system.entries"] = sum(s["entries"] for s in summaries)
    out["growth_analysis.arpack.failed"] = sum(s["arpack_failed"] for s in summaries)
    out["growth_analysis.arpack.s"] = total_s[ARPACK]
    out["cli.self_s"] = self_s[ROOT]
    out["cli.table.threads"] = max(s["table_threads"] for s in summaries)
    return out
