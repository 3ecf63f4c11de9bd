"""Group-commit coalescing of edge edits into batches.

The ingest half of the service: producers :meth:`~Coalescer.offer`
individual edits into a bounded buffer; the single writer thread
:meth:`~Coalescer.take`\\ s them back as flush groups.  The writer
blocks only while the buffer is empty; once any edit is pending it
takes every pending edit, up to ``flush_size``, at once (group
commit).  Nothing waits on a clock: a trickle reaches readers one
update pass after it arrives, and under load groups grow back to
``flush_size`` on their own, because edits pile up while the writer
applies the previous group (a full batch amortises one update pass
over many edits — the batch-dynamic model).

The buffer is bounded at ``max_pending``: a producer that outruns the
writer blocks in ``offer`` (or times out) instead of growing the queue
without limit — back-pressure, not buffering, is the overload story.

Timing goes through :func:`repro.obs.clock.perf`, the sanctioned
monotonic clock (rule R005 keeps raw ``time.*`` reads out of service
code).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.dynamic.feed import EdgeEdit
from repro.errors import ReproError
from repro.obs.clock import perf

__all__ = ["Coalescer"]


class Coalescer:
    """Bounded edit buffer whose writer takes whatever is pending."""

    def __init__(self, flush_size: int = 128, max_pending: int = 4096) -> None:
        if flush_size < 1:
            raise ReproError(f"flush_size must be >= 1, got {flush_size}")
        if max_pending < flush_size:
            raise ReproError(
                f"max_pending ({max_pending}) must be >= flush_size "
                f"({flush_size})"
            )
        self.flush_size = int(flush_size)
        self.max_pending = int(max_pending)
        self._edits: Deque[Tuple[float, EdgeEdit]] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self.offered_total = 0
        self.rejected_total = 0
        #: Arrival time (:func:`perf`) of the oldest edit in the group
        #: :meth:`take` returned last — the writer's freshness anchor.
        self.taken_since = 0.0

    # ----------------------------------------------------------- state
    @property
    def depth(self) -> int:
        """Edits currently pending (the queue-depth gauge reads this)."""
        return len(self._edits)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------- producers
    def offer(
        self, edit: EdgeEdit, timeout: Optional[float] = None
    ) -> bool:
        """Enqueue one edit; block while the buffer is full.

        Returns ``True`` on acceptance, ``False`` when the buffer
        stayed full for ``timeout`` seconds (the producer's overload
        signal).  Raises :class:`ReproError` once the coalescer is
        closed — a drained service must not silently swallow edits.
        """
        with self._cond:
            if timeout is None:
                while len(self._edits) >= self.max_pending:
                    if self._closed:
                        break
                    self._cond.wait()
            else:
                deadline = perf() + float(timeout)
                while len(self._edits) >= self.max_pending:
                    if self._closed:
                        break
                    remaining = deadline - perf()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        self.rejected_total += 1
                        return False
            if self._closed:
                raise ReproError("offer() on a closed coalescer")
            self._edits.append((perf(), edit))
            self.offered_total += 1
            self._cond.notify_all()
            return True

    # ---------------------------------------------------------- writer
    def take(self, timeout: Optional[float] = None) -> List[EdgeEdit]:
        """Wait until an edit is pending; return the next group.

        The group is every pending edit, up to ``flush_size``, in FIFO
        order.  An empty list means the wait timed out with nothing
        pending, or the coalescer is closed and fully drained — the
        writer's signal to exit its loop.
        """
        with self._cond:
            self._cond.wait_for(
                lambda: bool(self._edits) or self._closed, timeout
            )
            if not self._edits:
                return []  # timed out, or closed and drained
            self.taken_since = self._edits[0][0]
            out = [
                self._edits.popleft()[1]
                for _ in range(min(self.flush_size, len(self._edits)))
            ]
            self._cond.notify_all()  # wake producers blocked on full
            return out

    def close(self) -> None:
        """Stop accepting edits; pending ones remain takeable."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
