"""The simulated parallel machine: deterministic work-span scheduling.

Why this exists
---------------
The paper's scalability study (Figures 4–5) needs 1–64 hardware threads;
CPython's GIL and this environment's single core make those curves
unmeasurable directly.  This backend executes the *identical* task graph
the other engines execute — every superstep, every task, every barrier —
but instead of overlapping tasks in time it **schedules them onto T
virtual threads** and advances a virtual clock:

1. Tasks of a superstep are split into chunks (OpenMP
   ``schedule(dynamic, chunk)``).
2. Virtual threads repeatedly grab the next chunk off a shared queue;
   grabbing costs ``DEFAULT_CHUNK_OVERHEAD`` (the shared-counter CAS),
   each task costs ``DEFAULT_TASK_OVERHEAD`` plus its reported work
   units times ``DEFAULT_SECONDS_PER_UNIT``.
3. The superstep's virtual elapsed time is the **makespan** — the
   largest per-thread accumulated time — plus a barrier cost that grows
   with ``log2(T)`` (tree barrier,
   :func:`~repro.parallel.cost.barrier_cost`).
4. Sequential sections between supersteps are charged via
   :meth:`SimulatedEngine.charge`.

This is a standard work-span (BSP-flavoured) machine model.  It
reproduces the qualitative phenomena the paper reports *from the
algorithm itself*, with no curve-fitting: load imbalance when supersteps
have few or skewed tasks, barrier-dominated saturation at high thread
counts, and the poor scalability of small graphs under large batches
(more propagation iterations → more barriers and thinner supersteps).

Work measurement
----------------
``parallel_for(items, fn, work_fn)`` runs each ``fn(item)`` once (so
side effects and results are exactly the serial ones) and asks
``work_fn(item, result)`` how many units the task consumed.  When
``work_fn`` is missing each task is charged one unit.

The machine has one fixed cost model: the constants of
:mod:`repro.parallel.cost`.  They set only the scale of the virtual
milliseconds, not the shape of a speedup curve.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.errors import EngineError
from repro.parallel.api import BaseEngine
from repro.parallel.cost import (
    DEFAULT_CHUNK_OVERHEAD,
    DEFAULT_SECONDS_PER_UNIT,
    DEFAULT_TASK_OVERHEAD,
    barrier_cost,
)

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "SimulatedEngine",
    "dynamic_makespan",
    "static_makespan",
    "replay_trace",
]


def dynamic_makespan(
    costs: List[float],
    threads: int,
    chunk: int,
) -> float:
    """Makespan of dynamically scheduling ``costs`` over ``threads``.

    Event-driven simulation of an OpenMP ``schedule(dynamic, chunk)``
    loop: a min-heap of thread available-times; the earliest-free
    thread grabs the next chunk off the shared counter.
    """
    n = len(costs)
    if n == 0:
        return 0.0
    t = min(threads, n)
    if t == 1:
        return (
            n * DEFAULT_TASK_OVERHEAD
            + sum(costs) * DEFAULT_SECONDS_PER_UNIT
            + math.ceil(n / chunk) * DEFAULT_CHUNK_OVERHEAD
        )
    heap = [(0.0, i) for i in range(t)]
    next_idx = 0
    makespan = 0.0
    while next_idx < n:
        avail, tid = heapq.heappop(heap)
        end = min(next_idx + chunk, n)
        span = DEFAULT_CHUNK_OVERHEAD + sum(
            DEFAULT_TASK_OVERHEAD + w * DEFAULT_SECONDS_PER_UNIT
            for w in costs[next_idx:end]
        )
        next_idx = end
        finish = avail + span
        if finish > makespan:
            makespan = finish
        heapq.heappush(heap, (finish, tid))
    return makespan


def static_makespan(
    costs: List[float],
    threads: int,
) -> float:
    """Makespan under OpenMP ``schedule(static)``: iterations are
    pre-split into ``threads`` contiguous blocks, no work stealing.

    The counterpart of :func:`dynamic_makespan` for the scheduling
    ablation — static dispatch costs one chunk grab per thread but
    eats the full imbalance of skewed supersteps.
    """
    n = len(costs)
    if n == 0:
        return 0.0
    t = min(threads, n)
    bounds = [round(i * n / t) for i in range(t + 1)]
    makespan = 0.0
    for i in range(t):
        block = costs[bounds[i] : bounds[i + 1]]
        span = (
            DEFAULT_CHUNK_OVERHEAD
            + len(block) * DEFAULT_TASK_OVERHEAD
            + sum(block) * DEFAULT_SECONDS_PER_UNIT
        )
        if span > makespan:
            makespan = span
    return makespan


def replay_trace(
    trace: List[tuple],
    threads: int,
    schedule: str = "dynamic",
) -> float:
    """Virtual seconds to execute a recorded trace on ``threads``.

    ``trace`` comes from a :class:`SimulatedEngine` constructed with
    ``record_trace=True`` (see :attr:`SimulatedEngine.trace`): a list
    of ``("superstep", costs)`` and ``("serial", units)`` events.  The
    algorithm's task structure is independent of the thread count, so
    one recorded execution can be re-scheduled for any ``threads`` —
    this is what makes the 1→64-thread sweeps of the scalability
    benchmarks cheap.  ``schedule`` is ``"dynamic"`` (the engine's own
    chunking) or ``"static"`` (the scheduling ablation's other arm).
    """
    total = 0.0
    for kind, payload in trace:
        if kind == "serial":
            total += payload * DEFAULT_SECONDS_PER_UNIT
        elif kind == "superstep":
            if schedule == "static":
                total += static_makespan(payload, threads)
            else:
                chunk = max(1, len(payload) // (8 * threads))
                total += dynamic_makespan(payload, threads, chunk)
            total += barrier_cost(threads)
        else:  # pragma: no cover - defensive
            raise EngineError(f"unknown trace event {kind!r}")
    return total


class SimulatedEngine(BaseEngine):
    """Deterministic virtual-time engine (see module docstring).

    Parameters
    ----------
    threads:
        Number of virtual threads ``T``.
    chunk_size:
        Dynamic-scheduling chunk; ``None`` = ``max(1, n // (8 T))``
        per superstep (OpenMP's ``schedule(dynamic)`` chunking).

    Attributes
    ----------
    virtual_time:
        Accumulated virtual seconds since construction or
        :meth:`reset_clock`.
    supersteps, tasks_executed, work_units:
        Execution counters (useful for ablation studies).
    """

    name = "simulated"
    #: Slabs per vectorised superstep
    #: (:func:`~repro.parallel.api.slab_spans`): 4 per thread for the
    #: widest replay the figures run (64 threads), whatever ``threads``
    #: this engine records at.
    replay_slabs = 4 * 64

    def __init__(
        self,
        threads: int = 4,
        chunk_size: Optional[int] = None,
        record_trace: bool = False,
    ) -> None:
        super().__init__(threads=threads)
        self._chunk_size = chunk_size
        self.virtual_time: float = 0.0
        self.supersteps: int = 0
        self.tasks_executed: int = 0
        self.work_units: float = 0.0
        #: When ``record_trace``: the replayable execution trace —
        #: ``("superstep", [task costs])`` / ``("serial", units)``
        #: events consumable by :func:`replay_trace`.
        self.trace: Optional[List[tuple]] = [] if record_trace else None

    # ------------------------------------------------------------------
    def reset_clock(self) -> None:
        """Zero the virtual clock, counters, and any recorded trace."""
        self.virtual_time = 0.0
        self.supersteps = 0
        self.tasks_executed = 0
        self.work_units = 0.0
        if self.trace is not None:
            self.trace = []

    @property
    def virtual_time_ms(self) -> float:
        """Virtual elapsed time in milliseconds."""
        return self.virtual_time * 1e3

    def charge(self, units: float) -> None:
        """Charge ``units`` of sequential work to the virtual clock."""
        if units < 0:
            raise EngineError("cannot charge negative work")
        self.work_units += units
        self.virtual_time += units * DEFAULT_SECONDS_PER_UNIT
        if self.trace is not None:
            self.trace.append(("serial", float(units)))

    # ------------------------------------------------------------------
    def parallel_for(
        self,
        items: Sequence[T],
        fn: Callable[[T], R],
        work_fn: Optional[Callable[[T, R], float]] = None,
    ) -> List[R]:
        n = len(items)
        if n == 0:
            return []
        # 1. execute every task once (serial semantics, real results)
        results: List[R] = [fn(item) for item in items]
        costs = [
            (work_fn(items[i], results[i]) if work_fn is not None else 1.0)
            for i in range(n)
        ]
        # 2. schedule the measured costs onto T virtual threads
        chunk = self._chunk_size or max(1, n // (8 * self.threads))
        elapsed = dynamic_makespan(costs, self.threads, chunk)
        self.virtual_time += elapsed + barrier_cost(self.threads)
        self.supersteps += 1
        self.tasks_executed += n
        self.work_units += sum(costs)
        if self.trace is not None:
            self.trace.append(("superstep", costs))
        return results
