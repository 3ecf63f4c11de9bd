"""Nested-span tracing for supersteps and algorithm phases.

A :class:`Span` is one timed region — an algorithm phase
(``sosp_update.step2``), one engine superstep, or a worker task.  Spans
nest: the tracer keeps the current span in a :mod:`contextvars`
variable, so ``with tracer.span(...)`` anywhere in the call stack
parents correctly without plumbing span objects through every
signature.

Three tracer states, in order of cost:

- :data:`NULL_TRACER` — truly disabled: ``span()`` returns a shared
  dummy span and performs **zero clock reads** (the no-obs baseline
  the CI overhead gate compares against; select it for a whole process
  with ``REPRO_OBS=off``).
- the default ``Tracer(recording=False)`` — *passive*: spans are timed
  (two clock reads each, exactly what the hand-rolled
  ``perf_counter`` pairs they replaced cost) so ``step_seconds``
  surfaces stay populated, but nothing is retained.
- ``Tracer(recording=True)`` — spans are additionally appended to
  :attr:`Tracer.finished` for export (JSONL / Chrome trace /
  Prometheus; see :mod:`repro.obs.export`).

Worker threads of a pool do **not** inherit the caller's context, so
the active tracer is a module global (:func:`get_tracer` /
:func:`use_tracer`) and :class:`~repro.obs.engine.TracedEngine`
re-attaches the superstep span inside each task via :func:`attach`.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs import clock

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "current_span",
]

_ids = itertools.count(1)

#: The innermost open span of the current context (None at top level).
_CURRENT: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class Span:
    """One timed region with attributes and a parent link."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end",
                 "thread", "attrs")

    def __init__(
        self,
        name: str,
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> None:
        self.name = name
        self.span_id: int = next(_ids)
        self.parent_id = parent_id
        self.start: float = 0.0
        self.end: Optional[float] = None
        self.thread: int = threading.get_ident()
        self.attrs: Dict[str, Any] = dict(attrs)

    @property
    def elapsed(self) -> float:
        """Seconds between open and close (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes; returns the span for chaining."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (the JSONL exporter's row)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "elapsed": self.elapsed,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, elapsed={self.elapsed:.6f})"
        )


class Tracer:
    """Span factory; records finished spans when ``recording``."""

    def __init__(self, recording: bool = False) -> None:
        self.recording = bool(recording)
        self.finished: List[Span] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a nested span; times it and (when recording) keeps it."""
        parent = _CURRENT.get()
        sp = Span(name, parent_id=parent.span_id if parent else None,
                  **attrs)
        token = _CURRENT.set(sp)
        sp.start = clock.perf()
        try:
            yield sp
        finally:
            sp.end = clock.perf()
            _CURRENT.reset(token)
            if self.recording:
                with self._lock:
                    self._record(sp)

    def _record(self, span: Span) -> None:
        """Sink for finished spans (subclasses override the storage —
        the cross-process :class:`~repro.obs.collect.WorkerCollector`
        writes into a preallocated buffer instead of a growing list)."""
        self.finished.append(span)

    def record_finished(self, span: Span) -> None:
        """Record an externally produced, already-closed span.

        The cross-process merge path
        (:func:`repro.obs.collect.merge_report`) rebases worker spans
        onto the master clock and appends them here so one ``drain()``
        yields the merged timeline.  No-op unless recording.
        """
        if self.recording:
            with self._lock:
                self._record(span)

    def drain(self) -> List[Span]:
        """Remove and return every finished span recorded so far."""
        with self._lock:
            out = self.finished
            self.finished = []
        return out

    def describe(self) -> str:
        """One-word state for ``repro info``."""
        return "recording" if self.recording else "passive"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer(recording={self.recording})"


class NullTracer(Tracer):
    """Fully disabled tracer: no clock reads, one shared dummy span.

    The dummy span reports ``elapsed == 0.0``; callers that populate
    timing dictionaries from span elapsed therefore report zeros, which
    is the documented meaning of ``REPRO_OBS=off``.
    """

    def __init__(self) -> None:
        super().__init__(recording=False)
        self._null_span = Span("null")
        self._null_span.end = self._null_span.start  # elapsed == 0.0

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        yield self._null_span

    def describe(self) -> str:
        return "off"


#: The process-wide disabled tracer (the no-obs baseline).
NULL_TRACER = NullTracer()


def _default_tracer() -> Tracer:
    if os.environ.get("REPRO_OBS", "").strip().lower() in ("off", "0"):
        return NULL_TRACER
    return Tracer(recording=False)


_TRACER: Tracer = _default_tracer()
_TRACER_LOCK = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide active tracer."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the active tracer; returns the previous one."""
    global _TRACER
    with _TRACER_LOCK:
        prev = _TRACER
        _TRACER = tracer
    return prev


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scoped :func:`set_tracer`; restores the previous tracer on exit."""
    prev = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(prev)


def current_span() -> Optional[Span]:
    """The innermost open span of the calling context, if any."""
    return _CURRENT.get()
