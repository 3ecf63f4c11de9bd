"""Work-unit accounting for the simulated parallel machine.

A *work unit* is one elementary graph operation — in the shortest-path
kernels, one edge relaxation (a read of two distances, an add, a
compare, and possibly three writes).  Algorithms report units through a
:class:`WorkMeter` or through ``parallel_for``'s ``work_fn`` so the
simulated engine can charge tasks realistically.

The constants below (:data:`DEFAULT_SECONDS_PER_UNIT` etc.) are the
simulated machine's one fixed cost model, anchored to the paper's
hardware class: an optimised C++ relaxation on a Zen-2 core costs on
the order of 10–100 ns once memory latency is included (road-network
adjacency is cache-hostile); we use 60 ns.  They only set the *scale*
of reported virtual milliseconds — speedup shapes are invariant to it.
"""

from __future__ import annotations

import math

__all__ = [
    "WorkMeter",
    "barrier_cost",
    "DEFAULT_SECONDS_PER_UNIT",
    "DEFAULT_TASK_OVERHEAD",
    "DEFAULT_CHUNK_OVERHEAD",
    "DEFAULT_BARRIER_BASE",
    "DEFAULT_BARRIER_PER_LOG_THREAD",
]

#: Virtual seconds charged per work unit (one edge relaxation).
DEFAULT_SECONDS_PER_UNIT: float = 60e-9

#: Fixed cost charged per task (loop-iteration dispatch).
DEFAULT_TASK_OVERHEAD: float = 15e-9

#: Cost of a dynamic-scheduling chunk grab (shared-counter CAS).
DEFAULT_CHUNK_OVERHEAD: float = 120e-9

#: Barrier latency: base plus a per-log2(threads) tree term.
DEFAULT_BARRIER_BASE: float = 1.5e-6
DEFAULT_BARRIER_PER_LOG_THREAD: float = 0.9e-6


def barrier_cost(threads: int) -> float:
    """Virtual seconds of one barrier across ``threads`` threads."""
    if threads <= 1:
        return 0.0
    return (
        DEFAULT_BARRIER_BASE
        + DEFAULT_BARRIER_PER_LOG_THREAD * math.log2(threads)
    )


class WorkMeter:
    """A cumulative counter of work units.

    Passed into kernels that cannot conveniently report work through
    ``parallel_for``'s ``work_fn`` (e.g. purely sequential sections).

    Examples
    --------
    >>> m = WorkMeter()
    >>> m.add(10)
    >>> m.add(2.5)
    >>> m.total
    12.5
    """

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total: float = 0.0

    def add(self, units: float) -> None:
        """Accumulate ``units`` of work."""
        self.total += units

    def reset(self) -> float:
        """Zero the counter, returning the previous total."""
        t = self.total
        self.total = 0.0
        return t

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WorkMeter(total={self.total})"
