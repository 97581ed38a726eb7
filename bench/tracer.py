"""Outside-in layer trace of fuzzfix.

``Tracer.install`` replaces each traced public function at every module
attribute (and class attribute) that binds it with a wrapper recording a
span: id, parent id, name, start, end, thread and an optional measurement
of the call.  It also wraps the membership callables handed out by
``RunConfig.fuzzy_metric`` and the chunk functions that ``map_concat`` and
``scan_segments`` receive, so chunk spans executed by pool threads name the
scan that submitted them as their parent.  Nothing under ``src/`` changes.

Spans stay in memory (``Tracer.spans``) until the caller takes them;
``layer_metrics`` folds one unit's spans into the per-layer metrics.  A
span's self time is its duration minus the part of it that its child spans
cover, whichever threads those children ran on.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from typing import Callable, NamedTuple

import numpy as np


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    value: object = None   # what ``measure`` returned for the call


# per-layer metrics, in the order BENCHMARK.json lists them: name -> unit
LAYER_UNITS = {
    "config.load_s": "s",
    "config.validate_s": "s",
    "expr.eval_expr.calls": "count",
    "expr.eval_expr.self_s": "s",
    "expr.eval_on_arrays.calls": "count",
    "expr.eval_on_arrays.self_s": "s",
    "metric.membership.calls": "count",
    "metric.membership.points": "count",
    "metric.membership.self_s": "s",
    "metric.verify_fm_axioms_s": "s",
    "distances.on_array.calls": "count",
    "distances.on_array.self_s": "s",
    "distances.cumulative_integrals.calls": "count",
    "distances.cumulative_integrals.knots": "count",
    "distances.cumulative_integrals.self_s": "s",
    "distances.integrate_density.calls": "count",
    "distances.integrate_density.self_s": "s",
    "implicit.psi_eval_on_arrays.self_s": "s",
    "implicit.verify_psi_s": "s",
    "implicit.verify_psi.peak_mb": "MB",
    "contraction.verify_contraction_s": "s",
    "contraction.base_scan_s": "s",
    "contraction.recheck_s": "s",
    "contraction.margin_bytes": "bytes",
    "contraction.peak_mb": "MB",
    # fuzzfix._parallel (metric names start with a letter or digit)
    "parallel.chunks": "count",
    "parallel.chunk_busy_s": "s",
    "parallel.chunk_wait_s": "s",
    "parallel.utilization": "ratio",
    "parallel.concat_s": "s",
    "parallel.scan_segments_s": "s",
    "pairs.coincidence_s": "s",
    "pairs.commutation_s": "s",
    "pairs.property_ea_s": "s",
    "pairs.range_checks_s": "s",
    "pipeline.run_theorem_pipeline.self_s": "s",
    "pipeline.fixed_points_s": "s",
    "pipeline.residuals_on_grid.calls": "count",
    "dp.iterations": "count",
    "dp.bellman.calls": "count",
    "dp.bellman.self_s": "s",
    "dp.interp.self_s": "s",
    "dp.validate_s": "s",
    "cli.run_command.self_s": "s",
    "trace.overhead_s": "s",
}

# metrics that count work exactly; they must repeat bit for bit
EXACT = tuple(n for n, u in LAYER_UNITS.items() if u in ("count", "bytes"))

# metrics taken from the peak-memory pass (tracemalloc slows what it traces)
PEAKS = ("implicit.verify_psi.peak_mb", "contraction.peak_mb")

PARALLEL = tuple(n for n in LAYER_UNITS if n.startswith("parallel."))


_FAILED = object()


def _points(args, kwargs, result) -> int:
    return int(np.size(result))


def _knots(args, kwargs, result) -> int:
    uppers = args[1] if len(args) > 1 else kwargs["uppers"]
    return int(np.unique(np.asarray(uppers, dtype=float)).size)


def _jobs(args, kwargs, result) -> int:
    return int(args[2] if len(args) > 2 else kwargs.get("jobs", 1))


class Tracer:
    """Span recorder; tracing is on only while ``enabled`` is true."""

    def __init__(self, peak_memory: bool = False):
        self.enabled = False
        self.peak_memory = peak_memory
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, fn: Callable, name: str, *,
             measure: Callable | None = None,
             peak: bool = False,
             parent: int | None = None,
             hook: Callable | None = None) -> Callable:
        """``fn`` recording one span per call.

        ``measure(args, kwargs, result)`` gives the span's value; it runs after
        the call inside a ``trace.measure`` span, so no layer is charged for
        it.  ``peak`` records the tracemalloc peak (MB) on the peak-memory
        pass.  ``parent`` fixes the parent span, for calls made on pool
        threads.  ``hook(span_id, start, args, kwargs)`` may rewrite the
        arguments before the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            up = parent if parent is not None else (stack[-1] if stack else None)
            track = peak and tracer.peak_memory and not tracemalloc.is_tracing()
            if track:
                tracemalloc.start()
            stack.append(sid)
            start = time.perf_counter()
            if hook is not None:
                args, kwargs = hook(sid, start, args, kwargs)
            result = _FAILED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                value = None
                if track:
                    value = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                thread = threading.get_ident()
                if measure is not None and result is not _FAILED:
                    m0 = time.perf_counter()
                    value = measure(args, kwargs, result)
                    tracer.spans.append(Span(next(tracer._ids), up, "trace.measure",
                                             m0, time.perf_counter(), thread))
                tracer.spans.append(Span(sid, up, name, start, end, thread, value))

        return traced

    # -- scans: chunk spans are children of the scan that submitted them ----

    def _chunk(self, fn: Callable, scan_id: int, submitted: float) -> Callable:
        # the span's value is the submit time; wait = start - submit
        return self.wrap(fn, "parallel.chunk", parent=scan_id,
                         measure=lambda args, kwargs, result: submitted)

    def _map_concat_hook(self, sid, start, args, kwargs):
        n, fn, *rest = args
        return (n, self._chunk(fn, sid, start), *rest), kwargs

    def _scan_segments_hook(self, sid, start, args, kwargs):
        segments, *rest = args
        wrapped = [(n, self._chunk(fn, sid, start)) for n, fn in segments]
        return (wrapped, *rest), kwargs

    def install(self) -> None:
        """Patch the traced fuzzfix functions in every loaded fuzzfix module."""
        import fuzzfix.config as config
        from fuzzfix import (_parallel, cli, contraction, distances, dp, expr,
                             implicit, metric, pairs, pipeline)

        functions = [
            (config.load_config, "config.load_config", {}),
            (distances.make_integral_altering, "config.validate.integral_altering", {}),
            (expr.eval_expr, "expr.eval_expr", {}),
            (expr.eval_on_arrays, "expr.eval_on_arrays", {}),
            (metric.verify_fm_axioms, "metric.verify_fm_axioms", {}),
            (distances.cumulative_integrals, "distances.cumulative_integrals",
             {"measure": _knots}),
            (distances.integrate_density, "distances.integrate_density", {}),
            (implicit.psi_eval_on_arrays, "implicit.psi_eval_on_arrays", {}),
            (implicit.verify_psi, "implicit.verify_psi", {"peak": True}),
            (contraction.verify_contraction, "contraction.verify_contraction",
             {"peak": True}),
            (contraction._scan, "contraction.scan",
             {"measure": lambda a, k, r: int(r[0].nbytes)}),
            (_parallel.map_concat, "parallel.map_concat",
             {"measure": _jobs, "hook": self._map_concat_hook}),
            (_parallel.scan_segments, "parallel.scan_segments",
             {"measure": _jobs, "hook": self._scan_segments_hook}),
            (pairs.find_coincidence_points, "pairs.coincidence", {}),
            (pairs.check_commutation_variant, "pairs.commutation", {}),
            (pairs.check_property_EA, "pairs.property_ea", {}),
            (pairs.check_range_containment, "pairs.range_checks", {}),
            (pairs.check_range_closed, "pairs.range_checks", {}),
            (pipeline.run_theorem_pipeline, "pipeline.run_theorem_pipeline", {}),
            (pipeline.find_common_fixed_points, "pipeline.fixed_points", {}),
            (pipeline.residuals_on_grid, "pipeline.residuals_on_grid", {}),
            (dp.value_iterate, "dp.value_iterate",
             {"measure": lambda a, k, r: int(r.iterations)}),
            (dp.apply_bellman_operator, "dp.bellman", {}),
            (cli.run_command, "cli.run_command", {}),
        ]
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "fuzzfix" or n.startswith("fuzzfix."))]
        for fn, name, options in functions:
            traced = self.wrap(fn, name, **options)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, traced)

        methods = [
            (contraction.ContractionSpec, "__post_init__", "config.validate.contraction_spec"),
            (dp.DPProblem, "__post_init__", "dp.validate"),
            (distances.AlteringDistance, "on_array", "distances.on_array"),
            (dp.ValueFunction, "__call__", "dp.interp"),
        ]
        for cls, attr, name in methods:
            setattr(cls, attr, self.wrap(getattr(cls, attr), name))

        fuzzy_metric = config.RunConfig.fuzzy_metric
        tracer = self

        @functools.wraps(fuzzy_metric)
        def traced_fuzzy_metric(*args, **kwargs):
            fm = fuzzy_metric(*args, **kwargs)
            if not tracer.enabled:
                return fm
            membership = tracer.wrap(fm.membership, "metric.membership",
                                     measure=_points)
            return dataclasses.replace(fm, membership=membership)

        config.RunConfig.fuzzy_metric = traced_fuzzy_metric


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Fold one unit's spans into the per-layer metrics (without
    trace.overhead_s, which compares traced and untraced units)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def incl(*names):
        return sum(s.end - s.start for n in names for s in by_name[n])

    def self_s(name):
        return sum(own[s.id] for s in by_name[name])

    def values(name):
        return [s.value for s in by_name[name] if s.value is not None]

    # the first scan under each verify_contraction is the base scan, the
    # second the doubled-resolution recheck
    scans: dict[int, list[Span]] = defaultdict(list)
    for s in by_name["contraction.scan"]:
        scans[s.parent].append(s)
    base = recheck = 0.0
    for group in scans.values():
        group.sort(key=lambda s: s.start)
        base += group[0].end - group[0].start
        recheck += sum(s.end - s.start for s in group[1:])

    chunks = by_name["parallel.chunk"]
    scans_par = by_name["parallel.map_concat"] + by_name["parallel.scan_segments"]
    capacity = sum((s.end - s.start) * s.value for s in scans_par)
    busy = sum(s.end - s.start for s in chunks)

    m = {
        "config.load_s": incl("config.load_config"),
        "config.validate_s": incl("config.validate.contraction_spec",
                                  "config.validate.integral_altering", "dp.validate"),
        "expr.eval_expr.calls": calls("expr.eval_expr"),
        "expr.eval_expr.self_s": self_s("expr.eval_expr"),
        "expr.eval_on_arrays.calls": calls("expr.eval_on_arrays"),
        "expr.eval_on_arrays.self_s": self_s("expr.eval_on_arrays"),
        "metric.membership.calls": calls("metric.membership"),
        "metric.membership.points": sum(values("metric.membership")),
        "metric.membership.self_s": self_s("metric.membership"),
        "metric.verify_fm_axioms_s": incl("metric.verify_fm_axioms"),
        "distances.on_array.calls": calls("distances.on_array"),
        "distances.on_array.self_s": self_s("distances.on_array"),
        "distances.cumulative_integrals.calls": calls("distances.cumulative_integrals"),
        "distances.cumulative_integrals.knots": sum(values("distances.cumulative_integrals")),
        "distances.cumulative_integrals.self_s": self_s("distances.cumulative_integrals"),
        "distances.integrate_density.calls": calls("distances.integrate_density"),
        "distances.integrate_density.self_s": self_s("distances.integrate_density"),
        "implicit.psi_eval_on_arrays.self_s": self_s("implicit.psi_eval_on_arrays"),
        "implicit.verify_psi_s": incl("implicit.verify_psi"),
        "implicit.verify_psi.peak_mb": max(values("implicit.verify_psi"), default=0.0),
        "contraction.verify_contraction_s": incl("contraction.verify_contraction"),
        "contraction.base_scan_s": base,
        "contraction.recheck_s": recheck,
        "contraction.margin_bytes": sum(values("contraction.scan")),
        "contraction.peak_mb": max(values("contraction.verify_contraction"), default=0.0),
        "parallel.chunks": len(chunks),
        "parallel.chunk_busy_s": busy,
        "parallel.chunk_wait_s": sum(s.start - s.value for s in chunks),
        "parallel.utilization": busy / capacity if capacity > 0 else 0.0,
        "parallel.concat_s": self_s("parallel.map_concat"),
        "parallel.scan_segments_s": incl("parallel.scan_segments"),
        "pairs.coincidence_s": incl("pairs.coincidence"),
        "pairs.commutation_s": incl("pairs.commutation"),
        "pairs.property_ea_s": incl("pairs.property_ea"),
        "pairs.range_checks_s": incl("pairs.range_checks"),
        "pipeline.run_theorem_pipeline.self_s": self_s("pipeline.run_theorem_pipeline"),
        "pipeline.fixed_points_s": incl("pipeline.fixed_points"),
        "pipeline.residuals_on_grid.calls": calls("pipeline.residuals_on_grid"),
        "dp.iterations": sum(values("dp.value_iterate")),
        "dp.bellman.calls": calls("dp.bellman"),
        "dp.bellman.self_s": self_s("dp.bellman"),
        "dp.interp.self_s": self_s("dp.interp"),
        "dp.validate_s": incl("dp.validate"),
        "cli.run_command.self_s": self_s("cli.run_command"),
    }
    return m


def self_time_ranking(spans: list[Span]) -> list[tuple[str, float]]:
    """Span names by total self time, largest first (the tracer's own
    measurements left out)."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.name != "trace.measure":
            totals[s.name] += own[s.id]
    return sorted(totals.items(), key=lambda kv: -kv[1])
