"""Benchmark-side tracing: in-memory spans around calls into each layer.

Nothing here changes the program.  A traced pass records spans from the
benchmark's own code in three ways:

- explicit ``recorder.span(...)`` blocks around the calls the harness
  makes itself (``mosp_update``, ``apply_mixed_batch``, service submits
  and epoch reads, the Dijkstra oracle);
- :class:`CountingEngine`, an engine wrapper that forwards every call the
  way :class:`repro.obs.engine.TracedEngine` does and records one span
  per superstep, plus the shared-memory engine's public counters;
- :func:`instrument`, which wraps a few public functions for the length
  of the traced pass (the graph mutators, and the tree-update functions
  the service's writer thread calls) and restores them afterwards.

Span rows use the dict layout :func:`repro.obs.export.export_chrome_trace`
reads, so the pass is written out with the program's own exporter and
checked with its validator.  The layer of a span is the prefix of its
name before the first dot.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Sequence

LAYERS = ("graph", "core", "parallel", "sssp", "service", "bench")


class SpanRecorder:
    """Thread-safe in-memory span store with per-thread nesting."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        #: Stats objects returned by instrumented tree-update calls.
        self.update_stats: List[Any] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        stack = self._stack()
        row: Dict[str, Any] = {
            "name": name,
            "span_id": next(self._ids),
            "parent_id": stack[-1] if stack else None,
            "thread": threading.get_ident(),
            "attrs": attrs,
            "start": perf_counter(),
            "end": None,
        }
        stack.append(row["span_id"])
        try:
            yield row
        finally:
            row["end"] = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(row)

    def durations_ms(self, name: str) -> List[float]:
        return [
            (r["end"] - r["start"]) * 1e3 for r in self.spans
            if r["name"] == name
        ]


class NullRecorder:
    """The untraced pass: every span is a shared no-op context."""

    _null = contextlib.nullcontext({})

    def span(self, name: str, **attrs: Any) -> contextlib.nullcontext:
        return self._null


def self_ms_by_layer(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Self time per layer: each span's duration minus its children's."""
    child_s: Dict[int, float] = defaultdict(float)
    for r in spans:
        if r["parent_id"] is not None:
            child_s[r["parent_id"]] += r["end"] - r["start"]
    out = {layer: 0.0 for layer in LAYERS}
    for r in spans:
        own = (r["end"] - r["start"]) - child_s[r["span_id"]]
        layer = r["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + max(0.0, own) * 1e3
    return out


class CountingEngine:
    """Forwarding engine wrapper: one ``parallel.*`` span per superstep.

    Satisfies the :class:`repro.parallel.api.Engine` protocol; anything
    else (``supports_slab_dispatch``, ``plant``, counters) is forwarded
    to the wrapped engine, so the kernels take the same paths they take
    on the bare engine.
    """

    def __init__(self, inner: Any, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.recorder = recorder
        self.supersteps = 0
        self.superstep_s = 0.0
        self.dispatch_bytes = 0

    @property
    def name(self) -> str:
        return str(self.inner.name)

    @property
    def threads(self) -> int:
        return int(self.inner.threads)

    def _timed(self, op: str, items: int, call: Callable[[], Any]) -> Any:
        dispatched = getattr(self.inner, "dispatched_supersteps", 0)
        with self.recorder.span("parallel." + op, items=items) as row:
            out = call()
        self.supersteps += 1
        self.superstep_s += row["end"] - row["start"]
        if getattr(self.inner, "dispatched_supersteps", 0) != dispatched:
            self.dispatch_bytes += int(self.inner.last_dispatch_bytes)
        return out

    def parallel_for(self, items, fn, work_fn=None):
        return self._timed(
            "parallel_for", len(items),
            lambda: self.inner.parallel_for(items, fn, work_fn=work_fn),
        )

    def map_reduce(self, items, fn, reduce_fn, init, work_fn=None):
        return self._timed(
            "map_reduce", len(items),
            lambda: self.inner.map_reduce(
                items, fn, reduce_fn, init, work_fn=work_fn
            ),
        )

    def parallel_for_slabs(self, n_items, task, work_fn=None, min_chunk=1):
        return self._timed(
            "slabs", n_items,
            lambda: self.inner.parallel_for_slabs(
                n_items, task, work_fn=work_fn, min_chunk=min_chunk
            ),
        )

    def charge(self, units: float) -> None:
        self.inner.charge(units)

    def close(self) -> None:
        closer = getattr(self.inner, "close", None)
        if callable(closer):
            closer()

    def __getattr__(self, attr: str) -> Any:
        return getattr(self.inner, attr)


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap the graph mutators and the service's tree-update calls.

    ``ChangeBatch.apply_to`` and the two ``CSRGraph`` batch appliers get
    ``graph.*`` spans wherever they are called from; the
    ``sosp_update``/``apply_mixed_batch`` names the service module calls
    get ``core.*`` spans, and their returned stats are kept.  Every
    wrapper is removed on exit.
    """
    import repro.service.service as service_mod
    from repro.dynamic.changes import ChangeBatch
    from repro.graph import CSRGraph

    def spanned(fn: Callable[..., Any], name: str, keep: bool) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with recorder.span(name):
                out = fn(*args, **kwargs)
            if keep:
                recorder.update_stats.append(out)
            return out
        return wrapper

    targets = [
        (ChangeBatch, "apply_to", "graph.digraph_apply", False),
        (CSRGraph, "apply_batch", "graph.csr_apply", False),
        (CSRGraph, "append_batch", "graph.csr_apply", False),
        (service_mod, "sosp_update", "core.sosp_update", True),
        (service_mod, "apply_mixed_batch", "core.apply_mixed_batch", True),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _, _ in targets]
    try:
        for obj, attr, name, keep in targets:
            setattr(obj, attr, spanned(getattr(obj, attr), name, keep))
        yield
    finally:
        for obj, attr, original in saved:
            setattr(obj, attr, original)


def write_trace(spans: Sequence[Dict[str, Any]], path: Any) -> List[str]:
    """Export through the program's Chrome-trace writer and validate."""
    from repro.obs.export import export_chrome_trace, validate_chrome_trace

    export_chrome_trace(spans, path)
    return validate_chrome_trace(path)


def engine_counters(engine: CountingEngine) -> Dict[str, float]:
    """``parallel.*`` per-layer counters of one traced pass."""
    inner = engine.inner
    return {
        "parallel.slab_calls": float(engine.supersteps),
        "parallel.slab_ms": engine.superstep_s * 1e3,
        "parallel.dispatch_bytes": float(engine.dispatch_bytes),
        "parallel.dispatched_supersteps": float(
            getattr(inner, "dispatched_supersteps", 0)
        ),
        "parallel.inline_supersteps": float(
            getattr(inner, "inline_supersteps", 0)
        ),
    }
