"""Outside-in tracing: spans around the public functions of each layer.

The tracer replaces module attributes of the installed package with
timing wrappers, so the program itself is unchanged.  Each span records
its name, start, end, parent, thread id and op id, and spans stay in
memory until the run writes them out.  The layer of a span is the first
part of its name (the module that defines the function).

Work submitted to ``estimate_discrepancy``'s thread pool starts on a
thread with no open span; such spans take as parent the innermost span
open on the thread that installed the tracer, which is the single caller
blocked in the pool at that moment.
"""

from __future__ import annotations

import dataclasses
import itertools
import statistics
import threading
import time
from collections import defaultdict
from typing import NamedTuple, Optional

from projclt import bounds, cli, empirics, sources

LAYERS = ("cli", "empirics", "sources", "testfuncs", "bounds", "directions")
LAWS = ("rademacher", "uniform", "two_point", "exponential", "independent", "exchangeable")
BOUND_FUNCTIONS = ("bound_iid", "bound_indep", "bound_linind", "bound_exch",
                   "bound_exch_linind", "bound_abstract")

# Bytes per sampled coordinate: estimate_discrepancy draws in float32.
COORD_BYTES = 4


def _law(model) -> str:
    name = getattr(model, "name", None)
    if name is not None:
        return name.split("(")[0]
    return "exchangeable" if hasattr(model, "population") else "independent"


def _sample_block_tag(args, kwargs, result):
    return {"law": _law(args[0]), "coords": int(result.size)}


def _estimate_tag(args, kwargs, result):
    return {"bytes": int(result.samples) * args[0].n * COORD_BYTES}


def _pair_stats_tag(args, kwargs, result):
    return {"states": int(result.samples)}


def _gaussian_tag(args, kwargs, result):
    return {"method": result.method}


# (module, attribute, span name, tag function)
TARGETS = [
    (cli, "main", "cli.main", None),
    (cli, "hypercube_directions", "directions.hypercube_directions", None),
    (cli, "random_orthonormal", "directions.random_orthonormal", None),
    (empirics, "norm_summary", "directions.norm_summary", None),
    (empirics, "gram", "directions.gram", None),
    (empirics, "verify_bound", "empirics.verify_bound", None),
    (empirics, "compute_bound", "empirics.compute_bound", None),
    (empirics, "estimate_discrepancy", "empirics.estimate_discrepancy", _estimate_tag),
    (empirics, "pair_stats", "empirics.pair_stats", _pair_stats_tag),
    (empirics, "eij_closed_form", "empirics.eij_closed_form", None),
    (empirics, "sample_block", "sources.sample_block", _sample_block_tag),
    (sources, "stream", "sources.stream", None),
    (empirics, "gaussian_expectation", "testfuncs.gaussian_expectation", _gaussian_tag),
] + [(bounds, fn, f"bounds.{fn}", None) for fn in BOUND_FUNCTIONS]

EVALUATE = "testfuncs.evaluate"


def _points_tag(args, kwargs, result):
    return {"points": int(result.shape[0])}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    op: Optional[str]
    tag: Optional[dict]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs timing wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list = []
        self._caller_stack: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name, fn, tag_fn=None):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._caller_stack[-1] if self._caller_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            tag = tag_fn(args, kwargs, result) if tag_fn else None
            self.spans.append(Span(span_id, name, start, end, parent,
                                   threading.get_ident(), self.op, tag))
            return result

        return wrapper

    def _patch(self, module, attr, replacement_for):
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, replacement_for(original))

    def __enter__(self):
        self._caller_stack = self._stack()
        for module, attr, name, tag_fn in TARGETS:
            self._patch(module, attr, lambda fn, n=name, t=tag_fn: self.timed(n, fn, t))

        def timed_builder(build):
            def wrapper(*args, **kwargs):
                g = build(*args, **kwargs)
                return dataclasses.replace(
                    g, evaluate=self.timed(EVALUATE, g.evaluate, _points_tag))
            return wrapper

        self._patch(cli, "build_test_function", timed_builder)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


# --------------------------------------------------------------------------
# Metrics

def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _children(spans):
    kids = defaultdict(list)
    for s in spans:
        kids[s.parent].append(s)
    return kids


def _self_time(span, kids, only=None) -> float:
    intervals = [(c.start, c.end) for c in kids.get(span.id, ())
                 if only is None or c.name in only]
    return span.duration - _covered(intervals, span.start, span.end)


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def pass_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer numbers for the spans of one traced pass."""
    kids = _children(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def self_sum(name):
        return sum(_self_time(s, kids) for s in by_name[name])

    m = {}
    blocks = by_name["sources.sample_block"]
    m["sources.sample_block.calls"] = len(blocks)
    m["sources.sample_block.busy_s"] = busy("sources.sample_block")
    for law in LAWS:
        mine = [s for s in blocks if s.tag["law"] == law]
        m[f"sources.sample_block.{law}.coords_per_s"] = _rate(
            sum(s.tag["coords"] for s in mine), sum(s.duration for s in mine))
    m["sources.stream.calls"] = len(by_name["sources.stream"])

    est = by_name["empirics.estimate_discrepancy"]
    est_busy = busy("empirics.estimate_discrepancy")
    est_self = self_sum("empirics.estimate_discrepancy")
    est_bytes = sum(s.tag["bytes"] for s in est)
    m["empirics.estimate_discrepancy.busy_s"] = est_busy
    m["empirics.estimate_discrepancy.self_s"] = est_self
    m["empirics.estimate_discrepancy.concurrency"] = _rate(
        sum(c.duration for s in est for c in kids.get(s.id, ())), est_busy)
    m["empirics.estimate_discrepancy.bytes_computed"] = est_bytes
    m["empirics.estimate_discrepancy.gbps_computed"] = _rate(est_bytes, est_self) / 1e9

    m["empirics.pair_stats.busy_s"] = busy("empirics.pair_stats")
    m["empirics.pair_stats.self_s"] = self_sum("empirics.pair_stats")
    m["empirics.pair_stats.states_per_s"] = _rate(
        sum(s.tag["states"] for s in by_name["empirics.pair_stats"]),
        busy("empirics.pair_stats"))
    m["empirics.eij_closed_form.calls"] = len(by_name["empirics.eij_closed_form"])
    m["empirics.eij_closed_form.busy_s"] = busy("empirics.eij_closed_form")
    m["empirics.compute_bound.busy_s"] = busy("empirics.compute_bound")
    m["empirics.verify_bound.busy_s"] = busy("empirics.verify_bound")

    gauss = by_name["testfuncs.gaussian_expectation"]
    m["testfuncs.gaussian_expectation.calls"] = len(gauss)
    m["testfuncs.gaussian_expectation.busy_s"] = busy("testfuncs.gaussian_expectation")
    for method in ("closed-form", "quadrature"):
        m[f"testfuncs.gaussian_expectation.{method.replace('-', '_')}.busy_s"] = sum(
            s.duration for s in gauss if s.tag["method"] == method)
    m["testfuncs.evaluate.busy_s"] = busy(EVALUATE)
    m["testfuncs.evaluate.points_per_s"] = _rate(
        sum(s.tag["points"] for s in by_name[EVALUATE]), busy(EVALUATE))

    bound_spans = [s for s in spans if s.name.startswith("bounds.")]
    m["bounds.calls"] = len(bound_spans)
    m["bounds.busy_s"] = sum(s.duration for s in bound_spans)
    m["directions.busy_s"] = sum(s.duration for s in spans if s.name.startswith("directions."))
    m["cli.self_s"] = sum(
        _self_time(s, kids, only=("empirics.verify_bound", "empirics.compute_bound"))
        for s in by_name["cli.main"])

    for layer in LAYERS:
        layer_self = sum(_self_time(s, kids) for s in spans
                         if s.name.split(".", 1)[0] == layer)
        m[f"self_s.{layer}"] = layer_self
        m[f"self_share.{layer}"] = _rate(layer_self, wall_s)
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
