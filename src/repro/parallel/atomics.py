"""Vertex-ownership discipline checking.

The paper's central correctness argument (§3.1) is that grouping
inserted edges by destination vertex makes each vertex's distance
writable by exactly one thread per superstep, eliminating races without
locks.  :class:`OwnershipTracker` turns that argument into an
executable assertion: kernels register every write with the task id
that performed it, and a second write to the same vertex inside one
superstep raises :class:`~repro.errors.OwnershipViolation`.

The tracker costs one dict operation per write, so it is enabled only
on a :class:`~repro.parallel.checked.CheckedEngine` (``checked=True``
or ``REPRO_CHECKED_ENGINES=1``; tests do this, benchmarks do not).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import OwnershipViolation

__all__ = ["OwnershipTracker", "resolve_tracker"]


class OwnershipTracker:
    """Records vertex writes per superstep and detects double-writes.

    Examples
    --------
    >>> t = OwnershipTracker()
    >>> t.record_write(vertex=3, task=0)
    >>> t.record_write(vertex=4, task=1)
    >>> t.next_superstep()
    >>> t.record_write(vertex=3, task=1)   # fine: new superstep
    """

    __slots__ = ("_writers", "supersteps", "writes")

    def __init__(self) -> None:
        self._writers: Dict[int, int] = {}
        self.supersteps: int = 0
        self.writes: int = 0

    def record_write(self, vertex: int, task: int) -> None:
        """Register that ``task`` wrote ``vertex`` this superstep.

        Repeated writes *by the same task* are legal (a task may relax a
        vertex against several incoming edges); a write by a different
        task raises :class:`OwnershipViolation`.
        """
        self.writes += 1
        prev = self._writers.get(vertex)
        if prev is None:
            self._writers[vertex] = task
        elif prev != task:
            from repro.obs.metrics import get_metrics

            m = get_metrics()
            if m.enabled:
                m.counter(
                    "ownership_violations_total",
                    "single-writer discipline violations detected",
                ).inc()
            raise OwnershipViolation(vertex, prev, task)

    def next_superstep(self) -> None:
        """Reset per-superstep state (called at each barrier)."""
        self._writers.clear()
        self.supersteps += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OwnershipTracker(supersteps={self.supersteps}, "
            f"writes={self.writes})"
        )


def resolve_tracker(engine: object) -> Optional[OwnershipTracker]:
    """The tracker a kernel running on ``engine`` reports writes to.

    A :class:`~repro.parallel.checked.CheckedEngine` (``checked=True``
    or ``REPRO_CHECKED_ENGINES=1``) exposes its tracker as
    ``engine.tracker`` and every kernel picks it up automatically —
    that is what makes the sanitizer one flag away on every backend
    family.  Any other engine has none.
    """
    tracker = getattr(engine, "tracker", None)
    if isinstance(tracker, OwnershipTracker):
        return tracker
    return None
