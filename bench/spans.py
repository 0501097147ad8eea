"""Layer spans for the traced run, and the per-layer metrics computed from them.

The layers are the package's modules. Recorder.install() adds an import hook:
as each simplexknn.<layer> module finishes executing, every function (not
class) named in its __all__ is replaced by a timing wrapper. Later
`from .x import f` bindings and module globals built from them (knn's
kernel table, for instance) then go through the wrappers. Names listed in
__all__ but missing from the module are skipped.

A span is [name, layer, start_ns, end_ns, parent_index, raised, counts]. A
call is a boundary call when its parent span belongs to another layer (or
there is none); only boundary calls count as a layer's calls and errors and
carry the boundary counts, which are computed from argument and result
shapes, not measured. Executing a layer's module body is a span named
MODULE: every CLI process pays it, so it is part of the layer's self time,
but it is not a call. Spans stay in memory until dump().

The program is single-threaded, so child spans never overlap: a span's self
time is its duration minus its children's durations.
"""

from __future__ import annotations

import functools
import importlib.machinery
import inspect
import json
import math
import statistics
import sys
import time

PACKAGE = "simplexknn"
LAYERS = ("cli", "dataset", "simplex", "metrics", "knn", "evaluation", "loci")
NAME, LAYER, START, END, PARENT, RAISED, COUNTS = range(7)
MODULE = "<module>"


# numpy is imported lazily so that the timed import of the package includes it
def _rows(x) -> int:
    import numpy as np

    shape = np.shape(x)
    return math.prod(shape[:-1]) if shape else 0


def _size(x) -> int:
    import numpy as np

    return int(np.size(x))


def _points(name, result) -> int:
    if name == "distance_field":
        return len(result.values)
    return 1 if name == "ternary_embed" else len(result)


# (metric, layer, functions it is counted on or None for all, count(name, args, result))
COUNTERS = (
    ("dataset.rows", "dataset", ("ingest_csv",), lambda n, a, r: len(r)),
    ("simplex.rows", "simplex", None, lambda n, a, r: _rows(a[0]) if a else 0),
    ("metrics.pairs", "metrics", None, lambda n, a, r: _size(r)),
    ("knn.pairs", "knn", ("pairwise_distances",), lambda n, a, r: int(r.size)),
    # bytes of one (m, n, D) float64 broadcast temporary: computed, not measured
    ("knn.bytes_computed", "knn", ("pairwise_distances",),
     lambda n, a, r: int(r.size) * a[0].n_parts * 8),
    ("loci.points", "loci", ("distance_field", "ternary_embed", "transform_dataset"),
     lambda n, a, r: _points(n, r)),
)


def _counters_for(layer: str, name: str) -> list:
    return [
        (metric, count)
        for metric, c_layer, functions, count in COUNTERS
        if c_layer == layer and (functions is None or name in functions)
    ]


class Recorder:
    """Collects the spans of one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.wrapped: set[str] = set()
        self.broken: set[str] = set()

    def install(self) -> None:
        sys.meta_path.insert(0, _LayerFinder(self))

    def instrument(self, module, layer: str) -> None:
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name, None)
            if inspect.isfunction(fn):
                setattr(module, name, self.wrap(fn, layer, name))

    def call(self, fn, layer: str, name: str, args=(), kwargs=None):
        """fn(*args, **kwargs) inside a new span; returns (result, span)."""
        spans, stack = self.spans, self.stack
        parent = stack[-1] if stack else -1
        span = [name, layer, 0, 0, parent, False, None]
        stack.append(len(spans))
        spans.append(span)
        span[START] = time.perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException:
            span[END] = time.perf_counter_ns()
            span[RAISED] = True
            stack.pop()
            raise
        span[END] = time.perf_counter_ns()
        stack.pop()
        return result, span

    def wrap(self, fn, layer: str, name: str):
        counters = _counters_for(layer, name)
        self.wrapped.add(f"{layer}.{name}")

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            result, span = self.call(fn, layer, name, args, kwargs)
            parent = span[PARENT]
            if counters and (parent < 0 or self.spans[parent][LAYER] != layer):
                span[COUNTS] = self._count(counters, name, args, result)
            return result

        timed.layer = layer
        return timed

    def _count(self, counters, name, args, result) -> dict:
        counts = {}
        for metric, count in counters:
            try:
                counts[metric] = count(name, args, result)
            except (AttributeError, TypeError, IndexError, ValueError):
                # the shape this counter reads changed: report the metric absent
                self.broken.add(metric)
        return counts

    def dump(self, path, import_s: float) -> None:
        payload = {
            "import_s": import_s,
            "wrapped": sorted(self.wrapped),
            "broken": sorted(self.broken),
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(payload, separators=(",", ":")))


class _LayerFinder:
    """Meta-path finder that instruments each layer module after it executes."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def find_spec(self, fullname, path, target=None):
        package, _, layer = fullname.partition(".")
        if package != PACKAGE or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        execute = spec.loader.exec_module

        def exec_module(module):
            self.recorder.call(execute, layer, MODULE, (module,))
            self.recorder.instrument(module, layer)

        spec.loader.exec_module = exec_module
        return spec


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child_ns)]


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced process.

    L.self_s, L.calls and L.errors exist for every layer with a wrapped
    function; a counter exists when a function it is counted on was wrapped
    and its shape could be read. Anything else is absent, never 0.
    """
    wrapped = set(trace["wrapped"])
    layers = {w.split(".", 1)[0] for w in wrapped}
    out: dict = {}
    for layer in LAYERS:
        if layer in layers:
            out.update({f"{layer}.self_s": 0.0, f"{layer}.calls": 0, f"{layer}.errors": 0})
    for metric, layer, functions, _ in COUNTERS:
        names = {w.split(".", 1)[1] for w in wrapped if w.startswith(layer + ".")}
        present = names if functions is None else names & set(functions)
        if present and metric not in trace["broken"]:
            out[metric] = 0
    spans = trace["spans"]
    for span, self_ns in zip(spans, self_times_ns(spans)):
        layer = span[LAYER]
        out[f"{layer}.self_s"] += self_ns / 1e9
        parent = span[PARENT]
        if span[NAME] != MODULE and (parent < 0 or spans[parent][LAYER] != layer):
            out[f"{layer}.calls"] += 1
            out[f"{layer}.errors"] += int(span[RAISED])
        for metric, value in (span[COUNTS] or {}).items():
            if metric in out:
                out[metric] += value
    out["cli.import_s"] = trace["import_s"]
    return out


def pass_metrics(traces: list[dict]) -> dict:
    """Layer metrics of one pass: sums over its processes, median import time."""
    total: dict = {}
    for trace in traces:
        for metric, value in layer_metrics(trace).items():
            if metric != "cli.import_s":
                total[metric] = total.get(metric, 0) + value
    total["cli.import_s"] = statistics.median(t["import_s"] for t in traces)
    return total
