"""Layer tracing from outside the program, for one job in one process.

`Tracer.install` replaces public functions of the `ballflow` modules with
wrappers, wherever a module holds a reference to them, so calls between
modules pass through the wrappers.  Three kinds of wrapper:

* span: records (name, start, end, parent span, job id) in memory, and the
  span's self time, which is its duration minus that of its child spans and
  timed calls.  Used at layer boundaries that run at most about ten thousand
  times per job.
* timed: count and total time, no span.  For hot calls such as
  `balls.closed_ball` and the piecewise-linear operations, where a span per
  call would distort the numbers.  Only the outermost call into such a
  layer is counted and timed.
* counted: a count only (`balls.sets_equal`, about 164k calls per robustness
  job, and the merge-tree ball-cache lookups).

Every time reported is a self time, so the per-layer times plus `cli.self_s`
add up to the traced job time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from statistics import median

# (module, attribute, layer name)
SPANS = [
    ("cli", "main", "cli"),
    ("graph", "load_graph", "graph.load_graph"),
    ("graph", "MetricGraph.diameter", "graph.diameter"),
    ("graph", "MetricGraph.potential_profile", "graph.potential_profile"),
    ("levelkeys", "ball_keys", "levelkeys.ball_keys"),
    ("quotient", "subdivision", "quotient.subdivision"),
    ("quotient", "project", "quotient.project"),
    ("quotient", "is_injective", "quotient.is_injective"),
    ("quotient", "fingerprint", "quotient.fingerprint"),
    ("canon", "canonical_multigraph_code", "canon.canonical_code"),
    ("canon", "smooth_multigraph", "canon.smooth"),
    ("mergetree", "merge_radius", "mergetree.merge_radius"),
    ("mergetree", "ultrametric_check", "mergetree.ultrametric_check"),
    ("mergetree", "dendrogram_from_matrix", "mergetree.dendrogram"),
    ("evolution", "timeline", "evolution.timeline"),
    ("evolution", "robustness_radius", "evolution.robustness"),
]
TIMED = [("balls", "closed_ball", "balls.closed_ball")] + [
    ("piecewise", attr, "piecewise")
    for attr in (
        "pl_min",
        "pl_max",
        "pl_max_all",
        "PiecewiseLinear.line",
        "PiecewiseLinear.identity",
        "PiecewiseLinear.__add__",
        "PiecewiseLinear.__radd__",
        "PiecewiseLinear.__sub__",
        "PiecewiseLinear.__rsub__",
        "PiecewiseLinear.__neg__",
        "PiecewiseLinear.__mul__",
        "PiecewiseLinear.__rmul__",
        "PiecewiseLinear.__truediv__",
        "PiecewiseLinear.min_value",
        "PiecewiseLinear.max_value",
        "PiecewiseLinear.level_intervals",
    )
]
COUNTED = [
    ("balls", "sets_equal", "balls.sets_equal"),
    ("mergetree", "_cached_ball", "mergetree.ball_lookups"),
    ("evolution", "timeline_loci", "evolution.timeline_loci"),
]

# name -> (unit, better, how to read it from the job's totals); every time
# below is a self time
PER_LAYER = {
    "levelkeys.ball_keys_calls": ("count", "lower", "calls:levelkeys.ball_keys"),
    "levelkeys.ball_keys_points": ("count", "lower", "n:levelkeys.points"),
    "levelkeys.ball_keys_s": ("s", "lower", "self:levelkeys.ball_keys"),
    "levelkeys.points_under_is_injective": ("count", "lower", "n:levelkeys.points_under_is_injective"),
    "quotient.subdivision_calls": ("count", "lower", "calls:quotient.subdivision"),
    "quotient.subdivision_s": ("s", "lower", "self:quotient.subdivision"),
    "quotient.project_self_s": ("s", "lower", "self:quotient.project"),
    "quotient.is_injective_self_s": ("s", "lower", "self:quotient.is_injective"),
    "quotient.fingerprint_self_s": ("s", "lower", "self:quotient.fingerprint"),
    "quotient.cells": ("count", "lower", "n:quotient.cells"),
    "canon.canonical_code_calls": ("count", "lower", "calls:canon.canonical_code"),
    "canon.canonical_code_s": ("s", "lower", "self:canon.canonical_code"),
    "canon.smooth_s": ("s", "lower", "self:canon.smooth"),
    "balls.closed_ball_calls": ("count", "lower", "calls:balls.closed_ball"),
    "balls.closed_ball_s": ("s", "lower", "self:balls.closed_ball"),
    "balls.sets_equal_calls": ("count", "lower", "calls:balls.sets_equal"),
    "mergetree.merge_radius_calls": ("count", "lower", "calls:mergetree.merge_radius"),
    "mergetree.merge_radius_self_s": ("s", "lower", "self:mergetree.merge_radius"),
    "mergetree.ultrametric_check_s": ("s", "lower", "self:mergetree.ultrametric_check"),
    "mergetree.dendrogram_s": ("s", "lower", "self:mergetree.dendrogram"),
    "mergetree.ball_lookups": ("count", "lower", "calls:mergetree.ball_lookups"),
    "mergetree.balls_per_compare": ("ratio", "lower", "balls_per_compare"),
    "evolution.loci": ("count", "lower", "n:evolution.loci"),
    "evolution.injectivity_tests": ("count", "lower", "calls:quotient.is_injective"),
    "evolution.timeline_self_s": ("s", "lower", "self:evolution.timeline"),
    "evolution.robustness_self_s": ("s", "lower", "self:evolution.robustness"),
    "graph.load_graph_s": ("s", "lower", "self:graph.load_graph"),
    "graph.diameter_s": ("s", "lower", "self:graph.diameter"),
    "graph.unit_edges": ("count", "lower", "n:graph.unit_edges"),
    "graph.potential_profile_self_s": ("s", "lower", "self:graph.potential_profile"),
    "piecewise.calls": ("count", "lower", "calls:piecewise"),
    "piecewise.s": ("s", "lower", "self:piecewise"),
    "cli.self_s": ("s", "lower", "self:cli"),
    "cli.output_bytes": ("bytes", "lower", "n:cli.output_bytes"),
}
# measured by comparing traced with untraced jobs, not read from one job
OVERHEAD = {
    "trace.job_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _resolve(module, dotted: str):
    """(owner, attribute, function) for 'f' or 'Class.f' in a module."""
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)


class Tracer:
    """Spans and counters of one job, kept in memory until `write`."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []  # indices of the open spans
        self.child_s: list[float] = []  # per span: time covered by its children
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.n: Counter = Counter()
        self.active: set[str] = set()  # timed layers currently entered

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.spans.append([name, 0.0, 0.0, parent])
            tracer.child_s.append(0.0)
            tracer.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                span = tracer.spans[idx]
                span[1], span[2] = start, end
                tracer.calls[name] += 1
                tracer.self_s[name] += (end - start) - tracer.child_s[idx]
                if parent is not None:
                    tracer.child_s[parent] += end - start
            tracer._observe(name, args, result, parent)
            return result

        return wrapper

    def _timed(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if name in tracer.active:
                return fn(*args, **kwargs)
            tracer.active.add(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.active.discard(name)
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed
                if tracer.stack:
                    tracer.child_s[tracer.stack[-1]] += elapsed

        return wrapper

    def _counted(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            result = fn(*args, **kwargs)
            tracer._observe(name, args, result, None)
            return result

        return wrapper

    def _observe(self, name, args, result, parent) -> None:
        """Work counts read from a call's arguments and result."""
        if name == "levelkeys.ball_keys":
            points = len(args[2])
            self.n["levelkeys.points"] += points
            if parent is not None and self.spans[parent][0] == "quotient.is_injective":
                self.n["levelkeys.points_under_is_injective"] += points
        elif name == "quotient.subdivision":
            self.n["quotient.cells"] += len(result.vertex_cells) + len(result.segment_cells)
        elif name == "graph.load_graph":
            self.n["graph.unit_edges"] += result.num_edges
        elif name == "evolution.timeline_loci":
            self.n["evolution.loci"] += len(result)

    def install(self) -> None:
        """Wrap every traced function in the already imported ballflow modules."""
        modules = [m for k, m in sys.modules.items() if k == "ballflow" or k.startswith("ballflow.")]
        for kinds, make in ((SPANS, self._span), (TIMED, self._timed), (COUNTED, self._counted)):
            for mod_name, dotted, name in kinds:
                module = sys.modules[f"ballflow.{mod_name}"]
                owner, attr, raw = _resolve(module, dotted)
                if isinstance(raw, staticmethod):
                    setattr(owner, attr, staticmethod(make(name, raw.__func__)))
                    continue
                wrapper = make(name, raw)
                setattr(owner, attr, wrapper)
                for other in modules:  # names bound by `from module import f`
                    for key, value in list(vars(other).items()):
                        if value is raw:
                            setattr(other, key, wrapper)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, output_bytes: int) -> dict[str, float]:
        self.n["cli.output_bytes"] = output_bytes
        lookups = self.calls["mergetree.ball_lookups"]
        totals = {"balls_per_compare": self.calls["balls.closed_ball"] / lookups if lookups else 0.0}
        for kind, counter in (("calls", self.calls), ("self", self.self_s), ("n", self.n)):
            for key, value in counter.items():
                totals[f"{kind}:{key}"] = value
        return {name: totals.get(source, 0) for name, (_u, _b, source) in PER_LAYER.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": self.job_id})
                    + "\n"
                )


def time_sum(layers: dict[str, float]) -> float:
    """Sum of every per-layer time; equals the traced job time when the spans
    cover the job without overlap."""
    return sum(layers[k] for k, (unit, _b, _s) in PER_LAYER.items() if unit == "s")


def aggregate(traced: list[dict], untraced_job_s: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics of a trace run: counts, which must repeat exactly
    in every traced job, and median times; plus the tracing overhead."""
    errors = []
    out = {}
    for name, (unit, _b, _s) in PER_LAYER.items():
        values = [job["layers"][name] for job in traced]
        if unit == "s":
            out[name] = median(values)
            continue
        if len(set(values)) > 1:
            errors.append(f"{name} differs between identical traced jobs: {values}")
        out[name] = values[0]
    job_s = median(job["job_s"] for job in traced)
    out["trace.job_s"] = job_s
    out["trace.overhead_s"] = job_s - median(untraced_job_s)
    return out, errors
