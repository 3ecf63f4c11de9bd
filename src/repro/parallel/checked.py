"""The checked engine: ownership tracking one flag away, on any backend.

The opt-in for :class:`~repro.parallel.atomics.OwnershipTracker`
lives on the *engine*: wrap any backend and every kernel that runs on
it picks up the tracker automatically (kernels look for an
``engine.tracker`` attribute), and the superstep boundary — one
``parallel_for`` — advances the tracker so stale writes from a
previous superstep can't mask a race.

Enable it per call site (``resolve_engine("shm", threads=2,
checked=True)`` or ``engine=CheckedEngine(SerialEngine())``) or
globally for a whole test run with the ``REPRO_CHECKED_ENGINES=1``
environment variable, which the dedicated CI job uses to execute the
tier-1 suite under checked engines for every backend family.

Every backend runs its tasks' master-side code on one thread (serial
and simulated loop in the caller; shm workers are processes that
cannot see the tracker, so slab kernels record their writes on the
master after the barrier), so the tracker needs no lock.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.errors import WriteSetViolation
from repro.parallel.api import SlabTask
from repro.parallel.atomics import OwnershipTracker

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["CheckedEngine"]


class CheckedEngine:
    """Wrap an engine with per-superstep vertex-ownership tracking.

    Satisfies the :class:`~repro.parallel.api.Engine` protocol and
    delegates everything else (``virtual_time``, ``trace``, ``close``,
    ...) to the wrapped backend, so checked engines drop into any call
    site that accepts an engine.

    Attributes
    ----------
    inner:
        The wrapped backend.
    tracker:
        The :class:`OwnershipTracker` kernels report their writes to.
    """

    def __init__(self, inner: Any) -> None:
        if isinstance(inner, CheckedEngine):
            inner = inner.inner  # never stack sanitizers
        self.inner = inner
        self.tracker = OwnershipTracker()

    @property
    def name(self) -> str:
        return f"checked({self.inner.name})"

    @property
    def threads(self) -> int:
        return int(self.inner.threads)

    def parallel_for(
        self,
        items: Sequence[T],
        fn: Callable[[T], R],
        work_fn: Optional[Callable[[T, R], float]] = None,
    ) -> List[R]:
        self.tracker.next_superstep()
        return self.inner.parallel_for(items, fn, work_fn=work_fn)

    def map_reduce(
        self,
        items: Sequence[T],
        fn: Callable[[T], R],
        reduce_fn: Callable[[Any, R], Any],
        init: Any,
        work_fn: Optional[Callable[[T, R], float]] = None,
    ) -> Any:
        self.tracker.next_superstep()
        return self.inner.map_reduce(
            items, fn, reduce_fn, init, work_fn=work_fn
        )

    def parallel_for_slabs(
        self,
        n_items: int,
        task: SlabTask,
        work_fn: Optional[Callable[[Tuple[int, int], Any], float]] = None,
        min_chunk: int = 1,
    ) -> List[Any]:
        """Slab-dispatch fast path, still one tracked superstep.

        Worker processes cannot report writes into this tracker, so
        slab kernels dispatched by reference record their writes on the
        master after the barrier (see ``repro/core/kernels.py``) — the
        superstep boundary advanced here keeps those recordings scoped
        exactly like the closure path's.

        When the task declares a write-set (``writes is not None``),
        this wrapper also cross-checks it two ways — the runtime twin
        of lint rule R006.  An undeclared write is kept when the
        superstep runs inline but lost when it is dispatched (only
        ``task.writes`` is copied back), so it makes the result depend
        on the engine's dispatch decision:

        1. *statically*, against the analyzer's inferred write-set for
           ``task.ref`` (anything the kernel provably stores into but
           didn't declare is rejected before dispatch);
        2. *observationally*, by content-digesting every array the task
           binds but does not declare, before and after the superstep —
           catching dynamic writes static inference can't see (e.g. a
           catalog key computed from ``params``) whenever the superstep
           ran inline.
        """
        self.tracker.next_superstep()
        self._check_static_writes(task)
        undeclared = self._undeclared(task)
        before = {n: self._digest(a) for n, a in undeclared.items()}
        out = self.inner.parallel_for_slabs(
            n_items, task, work_fn=work_fn, min_chunk=min_chunk
        )
        changed = tuple(
            n for n, a in undeclared.items() if self._digest(a) != before[n]
        )
        if changed:
            raise WriteSetViolation(
                task.ref, changed, "observed content change during dispatch"
            )
        return out

    # -- write-set cross-check (runtime twin of lint rule R006) --------
    @staticmethod
    def _digest(array: "np.ndarray") -> bytes:
        return hashlib.blake2b(
            np.ascontiguousarray(array).tobytes(), digest_size=16
        ).digest()

    def _check_static_writes(self, task: SlabTask) -> None:
        if task.writes is None:
            return
        try:
            from repro.analysis.dataflow import infer_ref_writes
        except ImportError:  # pragma: no cover - analysis pkg stripped
            return
        inferred = infer_ref_writes(task.ref)
        if inferred is None:
            return
        declared = set(task.writes)
        undeclared = tuple(
            k
            for k in inferred.writes
            if k not in declared and not k.startswith("<")
        )
        if undeclared:
            raise WriteSetViolation(
                task.ref, undeclared, "static write-set inference"
            )

    @staticmethod
    def _undeclared(task: SlabTask) -> Dict[str, "np.ndarray"]:
        """Arrays the task binds but does not declare writable."""
        if task.writes is None:
            return {}
        declared = set(task.writes)
        return {n: a for n, a in task.arrays.items() if n not in declared}

    def close(self) -> None:
        """Release the wrapped backend's pool/segments, if it has any.

        Wrappers used to swallow ``close()`` into ``__getattr__``
        delegation only when the inner engine defined it; this explicit
        hop makes ``close()`` safe on every checked engine (a no-op
        over serial/simulated backends).
        """
        inner_close = getattr(self.inner, "close", None)
        if callable(inner_close):
            inner_close()

    def charge(self, units: float) -> None:
        self.inner.charge(units)

    def __getattr__(self, attr: str) -> Any:
        # backend-specific surface (virtual_time, trace, ...)
        return getattr(self.inner, attr)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CheckedEngine({self.inner!r})"
