"""Engine wrapper emitting one span per superstep, on any backend.

``TracedEngine`` wraps an :class:`~repro.parallel.api.Engine`
(including a :class:`~repro.parallel.checked.CheckedEngine` — the
sanitizer and the tracer compose) and annotates every
``parallel_for``/``parallel_for_slabs`` call — one superstep — with:

- ``phase``: the name of the enclosing algorithm span (e.g.
  ``sosp_update.step2``), read from the tracer's context;
- ``backend`` / ``threads``: the wrapped engine and its width;
- ``items``: superstep size;
- ``work_total`` / ``work_p50`` / ``work_p95`` / ``work_max``: the
  per-task work-unit distribution from the kernel's existing
  ``work_fn`` accounting — the straggler/imbalance signal of the
  paper's dynamic-scheduling discussion.

Task bodies that run in the caller's process (serial, simulated, an
inline shm superstep) open their spans under the superstep span
directly.  Worker *processes* see their own default tracer; their
spans travel the piggybacked collector protocol of
:mod:`repro.obs.collect` and are re-parented under the superstep span
at merge time.  A superstep that lost a worker and re-ran inline (the
shm ``BrokenProcessPool`` path) is stamped ``recovery=true``, so crash
recoveries are visible in traces.

:func:`repro.parallel.api.resolve_engine` applies this wrapper
automatically whenever the active tracer is recording; algorithm code
never constructs it by hand.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, TypeVar

from repro.obs.metrics import get_metrics
from repro.obs.tracer import current_span, get_tracer

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["TracedEngine"]


class TracedEngine:
    """Wrap any engine so each superstep emits an annotated span."""

    def __init__(self, inner: Any) -> None:
        if isinstance(inner, TracedEngine):
            inner = inner.inner  # never stack tracers
        self.inner = inner

    @property
    def name(self) -> str:
        return f"traced({self.inner.name})"

    @property
    def threads(self) -> int:
        return int(self.inner.threads)

    def parallel_for(
        self,
        items: Sequence[T],
        fn: Callable[[T], R],
        work_fn: Optional[Callable[[T, R], float]] = None,
    ) -> List[R]:
        tracer = get_tracer()
        enclosing = current_span()
        with tracer.span(
            "superstep",
            op="parallel_for",
            phase=enclosing.name if enclosing is not None else "",
            backend=self.inner.name,
            threads=self.threads,
            items=len(items),
        ) as sp:
            results = self.inner.parallel_for(items, fn, work_fn=work_fn)
            if getattr(self.inner, "last_superstep_recovery", False):
                sp.set(recovery=True)
            if work_fn is not None and results:
                costs = sorted(
                    float(work_fn(items[i], results[i]))
                    for i in range(len(items))
                )
                n = len(costs)
                sp.set(
                    work_total=sum(costs),
                    work_p50=costs[min(n - 1, round(0.50 * (n - 1)))],
                    work_p95=costs[min(n - 1, round(0.95 * (n - 1)))],
                    work_max=costs[-1],
                )
            m = get_metrics()
            if m.enabled:
                m.counter(
                    "engine_supersteps_total",
                    "engine supersteps executed",
                ).inc()
                m.histogram(
                    "engine_superstep_items",
                    "tasks per superstep",
                ).observe(len(items))
        return results

    def parallel_for_slabs(
        self,
        n_items: int,
        task: Any,
        work_fn: Optional[Callable[[Any, Any], float]] = None,
        min_chunk: int = 1,
    ) -> List[Any]:
        """Slab-dispatch fast path: one span per slab superstep.

        The work distribution is computed here from the backend's
        ``last_slab_spans`` — spans on the shm backend therefore report
        the same non-empty ``work_p50/p95/max`` the closure backends
        do, plus the dispatch payload size in bytes and the superstep's
        ``path`` (``inline``, ``dispatched`` or ``probe``: where the
        backend's dispatch policy ran it).  When the tracer
        is recording, the shm workers additionally record one
        ``worker.slab`` span per slab and ship them back piggybacked on
        the reply (:mod:`repro.obs.collect`); the merge re-parents them
        under this superstep span.  A superstep that lost a worker and
        re-ran inline is stamped ``recovery=true``.
        """
        tracer = get_tracer()
        enclosing = current_span()
        with tracer.span(
            "superstep",
            op="parallel_for_slabs",
            phase=enclosing.name if enclosing is not None else "",
            backend=self.inner.name,
            threads=self.threads,
            items=n_items,
        ) as sp:
            results = self.inner.parallel_for_slabs(
                n_items, task, work_fn=work_fn, min_chunk=min_chunk
            )
            if getattr(self.inner, "last_superstep_recovery", False):
                sp.set(recovery=True)
            path = getattr(self.inner, "last_slab_path", None)
            if path is not None:
                sp.set(path=path)
            spans = list(getattr(self.inner, "last_slab_spans", []) or [])
            sp.set(
                slabs=len(spans),
                dispatch_bytes=int(
                    getattr(self.inner, "last_dispatch_bytes", 0)
                ),
            )
            if work_fn is not None and results and len(spans) == len(results):
                costs = sorted(
                    float(work_fn(spans[i], results[i]))
                    for i in range(len(results))
                )
                n = len(costs)
                sp.set(
                    work_total=sum(costs),
                    work_p50=costs[min(n - 1, round(0.50 * (n - 1)))],
                    work_p95=costs[min(n - 1, round(0.95 * (n - 1)))],
                    work_max=costs[-1],
                )
            m = get_metrics()
            if m.enabled:
                m.counter(
                    "engine_supersteps_total",
                    "engine supersteps executed",
                ).inc()
                m.histogram(
                    "engine_superstep_items",
                    "tasks per superstep",
                ).observe(len(spans))
        return results

    def close(self) -> None:
        """Release the wrapped backend's pool/segments, if it has any."""
        inner_close = getattr(self.inner, "close", None)
        if callable(inner_close):
            inner_close()

    def charge(self, units: float) -> None:
        self.inner.charge(units)

    def __getattr__(self, attr: str) -> Any:
        # backend-specific surface (tracker, virtual_time, trace, ...)
        return getattr(self.inner, attr)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TracedEngine({self.inner!r})"
