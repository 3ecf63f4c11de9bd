"""Cross-process span/metric collection for pool workers.

The slab spans of :class:`~repro.obs.engine.TracedEngine` used to stop
at the master: workers saw their own default (null) tracer, so the
shm backend's worker processes — which carry all real workloads —
were observability blind spots.  This module closes the gap without
adding a single IPC round trip:

1. **Opt-in header.**  When the master's active tracer is recording,
   :func:`obs_header` returns a tiny ``{"t_send": ...}`` dict that
   rides inside the existing dispatch payload.  With a passive or null
   tracer (``REPRO_OBS=off``) it returns ``None`` and both the dispatch
   payload and the tagged reply are byte-identical to the
   pre-collection protocol — zero growth, re-checked by the CI
   disabled-overhead gate.
2. **Worker capture.**  The worker wraps its chunk in a
   :class:`WorkerCapture`: a :class:`WorkerCollector` (a recording
   tracer whose sink is a *preallocated* :class:`SpanBuffer` — appends
   are index stores, never list growth, and overflow drops + counts
   instead of allocating) plus a fresh enabled
   :class:`~repro.obs.metrics.MetricsRegistry` whose final state is by
   construction the chunk's metric delta.
3. **Piggybacked reply.**  The capture's :class:`WorkerReport` —
   spans, metric deltas, the worker's receive/reply clock readings —
   returns inside the existing tagged reply (tag ``b"O"``), so the
   master pays one extra pickle field, not an extra message.
4. **Clock alignment + merge.**  Worker ``perf_counter`` epochs are
   not comparable across processes, so :func:`merge_report` estimates
   each worker's clock offset NTP-style from the four timestamps of
   the dispatch round trip (master send/done, worker receive/reply),
   rebases the spans onto the master clock, re-parents them under the
   dispatching superstep span (clamped so no merged span starts before
   its parent — the invariant ``validate_chrome_trace`` now checks),
   and aggregates the metric deltas into the session registry with a
   ``worker`` label.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.obs import clock
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.obs.tracer import Span, Tracer, get_tracer, set_tracer

__all__ = [
    "DEFAULT_CAPACITY",
    "SpanBuffer",
    "WorkerCollector",
    "WorkerReport",
    "WorkerCapture",
    "obs_header",
    "estimate_offset",
    "merge_report",
    "merge_reports",
]

#: Span slots preallocated per worker chunk.  A chunk executes a
#: handful of slabs, so 512 covers deep kernel nesting with room to
#: spare; overflow is counted, never grown.
DEFAULT_CAPACITY = 512


class SpanBuffer:
    """Fixed-capacity span sink with preallocated slots.

    ``append`` is an index store into a list allocated once up front —
    the hot path of a worker chunk never grows a container.  Appends
    past ``capacity`` increment :attr:`dropped` (surfaced master-side
    as ``worker_spans_dropped_total``) instead of allocating.
    """

    __slots__ = ("capacity", "dropped", "_slots", "_n")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ReproError(f"span buffer capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.dropped = 0
        self._slots: List[Optional[Span]] = [None] * self.capacity
        self._n = 0

    def append(self, span: Span) -> None:
        if self._n < self.capacity:
            self._slots[self._n] = span
            self._n += 1
        else:
            self.dropped += 1

    def spans(self) -> List[Span]:
        """The recorded spans, in completion order."""
        return [s for s in self._slots[: self._n] if s is not None]

    def __len__(self) -> int:
        return self._n


class WorkerCollector(Tracer):
    """Recording tracer whose sink is a preallocated :class:`SpanBuffer`."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        super().__init__(recording=True)
        self.buffer = SpanBuffer(capacity)

    def _record(self, span: Span) -> None:
        self.buffer.append(span)

    def drain(self) -> List[Span]:
        with self._lock:
            out = self.buffer.spans()
            fresh = SpanBuffer(self.buffer.capacity)
            # the drop count is cumulative for the collector's
            # lifetime: a capture that drains mid-chunk must still
            # report every span the full buffer refused, not reset
            # worker_spans_dropped_total back to zero
            fresh.dropped = self.buffer.dropped
            self.buffer = fresh
        return out

    def describe(self) -> str:
        return "collecting"


class WorkerReport:
    """One worker chunk's observability payload (picklable).

    ``t_recv``/``t_reply`` are the worker's own ``perf_counter``
    readings at chunk entry/exit; together with the master's
    send/done timestamps they drive :func:`estimate_offset`.
    """

    __slots__ = ("pid", "t_recv", "t_reply", "spans", "metrics", "dropped")

    def __init__(
        self,
        pid: int,
        t_recv: float,
        t_reply: float,
        spans: List[Dict[str, Any]],
        metrics: Dict[str, Tuple[str, Any]],
        dropped: int = 0,
    ) -> None:
        self.pid = pid
        self.t_recv = t_recv
        self.t_reply = t_reply
        self.spans = spans
        self.metrics = metrics
        self.dropped = dropped

    def __reduce__(self) -> Tuple[Any, ...]:
        return (
            WorkerReport,
            (self.pid, self.t_recv, self.t_reply, self.spans,
             self.metrics, self.dropped),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkerReport(pid={self.pid}, spans={len(self.spans)}, "
            f"metrics={len(self.metrics)}, dropped={self.dropped})"
        )


class WorkerCapture:
    """Worker-side capture scope for one dispatched chunk.

    Entering installs the collector as the process tracer and a fresh
    enabled registry as the process metrics sink (both restored on
    exit); :meth:`task` wraps one unit of kernel work in a span and
    publishes the harness metrics (``worker_tasks_total``,
    ``worker_task_seconds``); :meth:`report` seals the chunk into a
    :class:`WorkerReport` for the tagged reply.
    """

    def __init__(self, header: Mapping[str, Any]) -> None:
        self.t_recv = clock.perf()
        capacity = int(header.get("capacity", DEFAULT_CAPACITY))
        self.collector = WorkerCollector(capacity=capacity)
        self.registry = MetricsRegistry(enabled=True)
        self._prev_tracer: Optional[Tracer] = None
        self._prev_metrics: Optional[MetricsRegistry] = None

    def __enter__(self) -> "WorkerCapture":
        self._prev_tracer = set_tracer(self.collector)
        self._prev_metrics = set_metrics(self.registry)
        return self

    def __exit__(self, *exc: object) -> None:
        if self._prev_tracer is not None:
            set_tracer(self._prev_tracer)
        if self._prev_metrics is not None:
            set_metrics(self._prev_metrics)

    @contextmanager
    def task(self, name: str, **attrs: Any) -> Iterator[Span]:
        """One unit of worker kernel work: a span plus harness metrics."""
        with self.collector.span(name, **attrs) as sp:
            yield sp
        self.registry.counter(
            "worker_tasks_total", "kernel tasks executed inside pool workers"
        ).inc()
        self.registry.histogram(
            "worker_task_seconds", "per-task wall seconds inside pool workers"
        ).observe(sp.elapsed)

    def report(self) -> WorkerReport:
        return WorkerReport(
            pid=os.getpid(),
            t_recv=self.t_recv,
            t_reply=clock.perf(),
            spans=[sp.to_dict() for sp in self.collector.buffer.spans()],
            metrics=self.registry.deltas(),
            dropped=self.collector.buffer.dropped,
        )


def obs_header(capacity: int = DEFAULT_CAPACITY) -> Optional[Dict[str, float]]:
    """The dispatch-payload collection header, or ``None`` when off.

    ``None`` unless the master's active tracer is *recording* — the
    passive default and the ``REPRO_OBS=off`` null tracer both return
    ``None``, which keeps worker collection fully disabled and every
    dispatch/reply payload byte-identical to the pre-collection
    protocol.
    """
    if not get_tracer().recording:
        return None
    return {"t_send": clock.perf(), "capacity": float(capacity)}


def estimate_offset(
    t_send: float, t_recv: float, t_reply: float, t_done: float
) -> float:
    """Worker-clock minus master-clock estimate (two-sample NTP).

    With the master sending at ``t_send``/collecting at ``t_done`` and
    the worker receiving at ``t_recv``/replying at ``t_reply`` (each on
    its own monotonic clock), symmetric-delay cancellation gives the
    classic ``((t_recv - t_send) + (t_reply - t_done)) / 2``.  The
    estimate is exact up to dispatch asymmetry, which is bounded by the
    round trip — merged spans therefore always land inside the
    dispatching superstep's window.
    """
    return ((t_recv - t_send) + (t_reply - t_done)) / 2.0


def merge_report(
    report: WorkerReport,
    t_send: float,
    t_done: float,
    anchor: Optional[Span] = None,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> int:
    """Merge one worker's report into the master's tracer/registry.

    Spans are rebased onto the master clock via
    :func:`estimate_offset`, given fresh master span ids (worker id
    counters collide across processes), re-parented — internal nesting
    preserved, top-level spans under ``anchor`` (the dispatching
    superstep span) — and clamped so no merged span starts before its
    anchor.  Metric deltas are folded into the registry with the
    worker's pid appended as a label.  Returns the number of spans
    merged.
    """
    tracer = tracer if tracer is not None else get_tracer()
    registry = registry if registry is not None else get_metrics()
    offset = estimate_offset(t_send, report.t_recv, report.t_reply, t_done)
    labels = {"worker": str(report.pid)}
    merged = 0
    if tracer.recording and report.spans:
        rows = [r for r in report.spans if r.get("end") is not None]
        # two passes: buffers record spans in completion order, so a
        # child's row precedes its parent's — ids must all exist before
        # parent links are resolved
        id_map: Dict[int, Span] = {
            int(r["span_id"]): Span(str(r["name"])) for r in rows
        }
        floor = anchor.start if anchor is not None else None
        for row in rows:
            sp = id_map[int(row["span_id"])]
            parent = (
                id_map.get(int(row["parent_id"]))
                if row.get("parent_id") is not None
                else None
            )
            if parent is not None:
                sp.parent_id = parent.span_id
            elif anchor is not None:
                sp.parent_id = anchor.span_id
            start = float(row["start"]) - offset
            end = float(row["end"]) - offset
            if floor is not None and start < floor:
                start = floor
            sp.start = start
            sp.end = max(end, start)
            # one synthetic lane per worker process in trace viewers
            sp.thread = int(report.pid)
            sp.attrs = dict(row.get("attrs") or {})
            sp.attrs.update(labels)
            sp.attrs["clock_offset"] = offset
            tracer.record_finished(sp)
            merged += 1
    if report.metrics:
        registry.merge_deltas(report.metrics, labels=labels)
    if report.dropped and registry.enabled:
        registry.counter(
            "worker_spans_dropped_total",
            "worker spans dropped by full collector buffers",
        ).inc(float(report.dropped))
    return merged


def merge_reports(
    reports: List[WorkerReport],
    t_send: float,
    anchor: Optional[Span] = None,
) -> int:
    """Merge every chunk report of one superstep; returns spans merged.

    The done-timestamp is read here, once, after all replies arrived —
    a slightly pessimistic round trip for early chunks, which only
    shrinks the offset estimate's error bars asymmetrically within the
    superstep window (spans still merge inside it).
    """
    t_done = clock.perf()
    return sum(
        merge_report(r, t_send, t_done, anchor=anchor)
        for r in reports
    )
