"""Span tracing for one benchmark child, built only from the benchmark's files.

`install` replaces the library's entry points with wrappers: every module
attribute of the `sparsepaving` package that holds one of the functions in
FUNCTIONS (the defining module's name and every name another module
imported), plus the JohnsonGraph methods in METHODS.  Each call or, for a
generator, each resume records one span (name, start, end, parent) in
memory.  After the run, `layer_metrics` turns the spans into the per-layer
metrics of PER_LAYER.  Self time is a span's duration minus its child spans.
"""
from __future__ import annotations

import functools
import sys
from array import array
from math import ceil
from time import perf_counter

# span name -> (defining module, attribute)
FUNCTIONS = (
    ("core.make_sparse_paving", "core", "make_sparse_paving"),
    ("johnson.johnson_graph", "johnson", "johnson_graph"),
    ("johnson.count_sparse_paving", "johnson", "count_sparse_paving"),
    ("johnson.sample_sparse_paving", "johnson", "sample_sparse_paving"),
    ("johnson.sample_stable_uniform", "johnson", "sample_stable_uniform"),
    ("minors.has_minor", "minors", "has_minor"),
    ("minors.clean_copy_minor", "minors", "clean_copy_minor"),
    ("minors.contains_line_structure", "minors", "contains_line_structure"),
    ("extremal.ex_density", "extremal", "ex_density"),
    ("extremal.count_disjoint_copies", "extremal", "count_disjoint_copies"),
    ("extremal.abundance_trend", "extremal", "abundance_trend"),
    ("census.verify_rows", "census", "verify_rows"),
    ("census.minor_census_rows", "census", "minor_census_rows"),
    ("census.nonbasis_bound_rows", "census", "nonbasis_bound_rows"),
    ("census.rows_to_csv", "census", "rows_to_csv"),
)

# span name -> (JohnsonGraph method, is a generator)
METHODS = (
    ("johnson.stable_sets", "stable_sets", True),
    ("johnson.maximal_stable_sets", "maximal_stable_sets", True),
    ("johnson.maximal_extension", "maximal_extension", False),
    ("johnson.glauber", "sample_stable_glauber", False),
)

# (metric, unit, better); the last dotted part names how it is computed
PER_LAYER = (
    ("johnson.count_sparse_paving.self_s", "s", "lower"),
    ("johnson.johnson_graph.self_s", "s", "lower"),
    ("johnson.sample_sparse_paving.calls", "count", "lower"),
    ("johnson.sample_sparse_paving.self_s", "s", "lower"),
    ("johnson.sample_sparse_paving.p50_us", "us", "lower"),
    ("johnson.sample_sparse_paving.p99_us", "us", "lower"),
    ("johnson.sample_stable_uniform.calls", "count", "lower"),
    ("johnson.sample_stable_uniform.self_s", "s", "lower"),
    ("johnson.sample_stable_uniform.p50_us", "us", "lower"),
    ("johnson.glauber.self_s", "s", "lower"),
    ("johnson.glauber.us_per_step", "us", "lower"),
    ("johnson.maximal_extension.calls", "count", "lower"),
    ("johnson.maximal_extension.self_s", "s", "lower"),
    ("johnson.maximal_extension.exact_frac", "ratio", "higher"),
    ("johnson.stable_sets.self_s", "s", "lower"),
    ("johnson.maximal_stable_sets.self_s", "s", "lower"),
    ("minors.has_minor.calls", "count", "lower"),
    ("minors.has_minor.self_s", "s", "lower"),
    ("minors.has_minor.p50_us", "us", "lower"),
    ("minors.has_minor.p99_us", "us", "lower"),
    ("minors.has_minor.hit_frac", "ratio", "higher"),
    ("minors.clean_copy_minor.calls", "count", "lower"),
    ("minors.clean_copy_minor.self_s", "s", "lower"),
    ("minors.contains_line_structure.calls", "count", "lower"),
    ("minors.contains_line_structure.self_s", "s", "lower"),
    ("minors.contains_line_structure.p50_us", "us", "lower"),
    ("core.make_sparse_paving.calls", "count", "lower"),
    ("core.make_sparse_paving.self_s", "s", "lower"),
    ("extremal.ex_density.self_s", "s", "lower"),
    ("extremal.ex_density.nodes", "count", "lower"),
    ("extremal.ex_density.us_per_node", "us", "lower"),
    ("extremal.count_disjoint_copies.calls", "count", "lower"),
    ("extremal.count_disjoint_copies.self_s", "s", "lower"),
    ("extremal.abundance_trend.self_s", "s", "lower"),
    ("census.verify_rows.self_s", "s", "lower"),
    ("census.minor_census_rows.self_s", "s", "lower"),
    ("census.nonbasis_bound_rows.self_s", "s", "lower"),
    ("census.rows_to_csv.self_s", "s", "lower"),
    ("trace.work_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Spans kept in flat arrays; parent is the index of the enclosing span or -1."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[str, float] = {}  # span name -> work count from return values
        self._stack: list[int] = []

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.work[name] = 0.0
        return len(self.names) - 1

    def wrap(self, name: str, fn, work=None):
        """Span per call; work(args, kwargs, result) adds to the span's work count."""
        nid = self._register(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if work is not None:
                self.work[name] += work(args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Span per resume, so time spent by the consumer between items is not counted."""
        nid = self._register(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        return traced

    def stats(self) -> dict[str, dict]:
        n = len(self.name_id)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        in_children = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                in_children[p] += dur[i]
        out = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": [],
                   "work": self.work[name]}
            for name in self.names
        }
        for i in range(n):
            s = out[self.names[self.name_id[i]]]
            s["calls"] += 1
            s["self_s"] += dur[i] - in_children[i]
            s["total_s"] += dur[i]
            s["durations"].append(dur[i])
        return out

    def root_seconds(self, lo: float, hi: float) -> float:
        """Summed duration of the outermost spans that start inside [lo, hi]."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.name_id))
            if self.parent[i] < 0 and lo <= self.start[i] <= hi
        )


def _glauber_steps(factor: int):
    def steps(args, kwargs, result):
        graph = args[0]
        burn_in = args[2] if len(args) > 2 else kwargs.get("burn_in")
        return factor * graph.vertex_count if burn_in is None else burn_in
    return steps


def install(tracer: Tracer) -> None:
    """Route the package's calls to FUNCTIONS and METHODS through the tracer."""
    modules = [m for name, m in sys.modules.items()
               if name == "sparsepaving" or name.startswith("sparsepaving.")]
    johnson = sys.modules["sparsepaving.johnson"]
    work = {
        "minors.has_minor": lambda a, k, res: res is not None,
        "extremal.ex_density": lambda a, k, res: res.nodes,
        "johnson.maximal_extension": lambda a, k, res: res.exact,
        "johnson.glauber": _glauber_steps(johnson.GLAUBER_BURN_FACTOR),
    }
    for name, module, attr in FUNCTIONS:
        fn = getattr(sys.modules[f"sparsepaving.{module}"], attr)
        traced = tracer.wrap(name, fn, work.get(name))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, traced)
    graph_cls = johnson.JohnsonGraph
    for name, attr, is_gen in METHODS:
        fn = getattr(graph_cls, attr)
        traced = tracer.wrap_generator(name, fn) if is_gen else tracer.wrap(name, fn, work.get(name))
        setattr(graph_cls, attr, traced)


def _percentile_us(durations: list[float], q: float) -> float:
    """Nearest-rank percentile in microseconds; 0 unless >= 10 samples lie beyond it."""
    k = len(durations)
    rank = ceil(q * k)
    if k - rank < 10:
        return 0.0
    return sorted(durations)[rank - 1] * 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _work_per_call(s: dict) -> float:
    return _ratio(s["work"], s["calls"])


def _us_per_work(s: dict) -> float:
    return _ratio(s["total_s"] * 1e6, s["work"])


FIELDS = {
    "calls": lambda s: s["calls"],
    "self_s": lambda s: s["self_s"],
    "p50_us": lambda s: _percentile_us(s["durations"], 0.50),
    "p99_us": lambda s: _percentile_us(s["durations"], 0.99),
    "exact_frac": _work_per_call,
    "hit_frac": _work_per_call,
    "nodes": lambda s: s["work"],
    "us_per_node": _us_per_work,
    "us_per_step": _us_per_work,
}


def layer_metrics(tracer: Tracer, work_start: float, work_end: float) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_s, which needs an untraced run."""
    stats = tracer.stats()
    out = {}
    for metric, _, _ in PER_LAYER:
        span, field = metric.rsplit(".", 1)
        if span != "trace":
            out[metric] = FIELDS[field](stats[span])
    out["trace.work_s"] = work_end - work_start
    out["trace.unattributed_s"] = out["trace.work_s"] - tracer.root_seconds(work_start, work_end)
    return out
