"""The :class:`Engine` protocol and engine resolution.

An *engine* executes supersteps.  One call to
:meth:`Engine.parallel_for` is one superstep: a set of independent
tasks followed by an implicit barrier, exactly the structure of the
``parallel for`` loops in the paper's Algorithms 1–2.  Tasks inside a
superstep must not depend on each other's writes; the vertex-grouping
technique of the paper guarantees this for the shortest-path kernels.

Work accounting
---------------
The simulated backend needs to know how much work each task performed
to compute a makespan.  Task functions therefore may return a tuple
``(value, work_units)`` when called under an engine whose
``wants_work`` is true; the convention is mediated by
:func:`repro.parallel.cost.WorkMeter` so algorithm code stays tidy.
The simpler path used throughout :mod:`repro.core`: pass
``work_fn=lambda item, value: units`` to ``parallel_for`` and return
plain values.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
    runtime_checkable,
)

from repro.errors import EngineError, UnknownEngineError

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "Engine",
    "SlabTask",
    "engine_observability",
    "resolve_engine",
    "slab_spans",
    "serial_spans",
    "parallel_for_slabs",
    "resolve_slab_kernel",
]


@runtime_checkable
class Engine(Protocol):
    """Execution engine protocol (one ``parallel_for`` = one superstep)."""

    #: Human-readable backend name (``"serial"``, ``"shm"``, ...).
    name: str

    #: Number of (real or virtual) threads.
    threads: int

    def parallel_for(
        self,
        items: Sequence[T],
        fn: Callable[[T], R],
        work_fn: Optional[Callable[[T, R], float]] = None,
    ) -> List[R]:
        """Apply ``fn`` to every item as one superstep; return results
        in item order.

        ``work_fn(item, result)`` (optional) reports the work units the
        task consumed; only cost-model engines read it.
        """
        ...

    def charge(self, units: float) -> None:
        """Account ``units`` of *serial* work (virtual-clock engines only)."""
        ...


@dataclass(frozen=True, eq=False)
class SlabTask:
    """A superstep task addressable *by reference* instead of by closure.

    Shared-memory engines cannot ship closures to their workers (spawn
    pickling), so the vectorised kernels describe each superstep as

    - ``ref``: the task function as an importable ``"module:qualname"``
      string.  The function must have the *slab kernel signature*
      ``fn(arrays, params, lo, hi)`` where ``arrays`` maps logical
      names to ndarrays and all mutation goes through ``arrays``;
    - ``arrays``: the caller's arrays the kernel consumes, by logical
      name.  A superstep that runs in this process runs the kernel on
      them directly; a dispatched one plants copies into shared memory
      first (see
      :meth:`~repro.parallel.backends.shm.SharedMemoryEngine.parallel_for_slabs`);
    - ``params``: small picklable scalars (never ndarrays — the
      dispatch path refuses to pickle arrays by design);
    - ``writes``: the names in ``arrays`` the kernel mutates — the
      *copy-back set*.  After a dispatched superstep succeeds, exactly
      these planted copies are copied back into the caller's arrays, so
      a write the task does not declare is *lost* after a dispatch but
      kept when the superstep runs inline: an engine-dependent result,
      which is why lint rule R006 and
      :class:`~repro.parallel.checked.CheckedEngine` reject it.
      ``None`` (the default) means "unknown" and conservatively copies
      every array back; declare ``()`` for a read-only kernel;
    - ``fingerprints``: optional name → fingerprint.  A dispatch
      re-plants a fingerprinted array only when its fingerprint changed
      since the previous plant (callers key the CSR arrays by
      :attr:`~repro.graph.csr.CSRGraph.topology_stamp` and
      :attr:`~repro.graph.csr.CSRGraph.weights_stamp`).

    Engines without slab dispatch run the kernel over ``arrays`` in
    :func:`parallel_for_slabs`' closure fallback.
    """

    ref: str
    arrays: Mapping[str, Any]
    params: Mapping[str, Any] = field(default_factory=dict)
    writes: Optional[Tuple[str, ...]] = None
    fingerprints: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.arrays, Mapping):
            raise EngineError(
                f"SlabTask.arrays must map logical names to ndarrays, "
                f"got {type(self.arrays).__name__}"
            )


#: "module:qualname" -> resolved slab kernel (see resolve_slab_kernel).
_KERNELS: Dict[str, Callable[..., Any]] = {}


def resolve_slab_kernel(ref: str) -> Callable[..., Any]:
    """Resolve a ``"module:qualname"`` :attr:`SlabTask.ref` (cached)."""
    fn = _KERNELS.get(ref)
    if fn is None:
        module_name, sep, qualname = ref.partition(":")
        if not sep or not module_name or not qualname:
            raise EngineError(
                f"bad SlabTask ref {ref!r}; expected 'module:qualname'"
            )
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        if not callable(obj):
            raise EngineError(f"SlabTask ref {ref!r} is not callable")
        fn = obj
        _KERNELS[ref] = fn
    return fn


class BaseEngine:
    """Shared plumbing for concrete engines.

    Every wall-clock backend accumulates :attr:`work_units` — the sum
    of ``work_fn(item, result)`` over executed tasks (one unit per task
    when no ``work_fn`` is given), matching the accounting the
    simulated backend feeds its virtual clock.  The cross-backend
    parity of this counter is a regression-tested invariant: a backend
    that drops ``work_fn`` silently breaks the traced-span work
    distributions and the simulated replays.
    """

    name = "base"
    #: How worker-task spans reach a recording tracer: ``"inline"``
    #: backends run tasks in the master process, where the module-global
    #: tracer records them directly; ``"collected"`` backends run tasks
    #: in other processes and ship spans back through the piggybacked
    #: reply protocol of :mod:`repro.obs.collect`.  ``repro info``
    #: surfaces this per backend.
    worker_spans = "inline"

    def __init__(self, threads: int = 1) -> None:
        if threads < 1:
            raise EngineError(f"threads must be >= 1, got {threads}")
        self.threads = int(threads)
        self.work_units: float = 0.0

    def _account_work(
        self,
        items: Sequence[T],
        results: Sequence[R],
        work_fn: Optional[Callable[[T, R], float]],
    ) -> None:
        """Accumulate the superstep's work units (master side)."""
        if work_fn is None:
            self.work_units += float(len(items))
        else:
            self.work_units += float(
                sum(work_fn(items[i], results[i]) for i in range(len(items)))
            )

    def parallel_for(
        self,
        items: Sequence[T],
        fn: Callable[[T], R],
        work_fn: Optional[Callable[[T, R], float]] = None,
    ) -> List[R]:
        raise NotImplementedError  # pragma: no cover - abstract

    def charge(self, units: float) -> None:  # noqa: D401 - trivial
        """No-op for wall-clock engines."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(threads={self.threads})"


#: Most items a one-thread engine puts in one slab.  A slab body's
#: numpy temporaries grow with its item count, and past a few hundred
#: KB each one is a fresh ``mmap`` that page-faults in on every call
#: (glibc): on a 2-vCPU x86 host one 20k-vertex slab of the vectorised
#: ensemble build took 7.0 ms against 2.7 ms for five 4k slabs.
MAX_SERIAL_SLAB_ITEMS = 4096


def _even_spans(n_items: int, nslabs: int) -> List[Tuple[int, int]]:
    bounds = [round(i * n_items / nslabs) for i in range(nslabs + 1)]
    return [
        (bounds[i], bounds[i + 1])
        for i in range(nslabs)
        if bounds[i] < bounds[i + 1]
    ]


def serial_spans(n_items: int) -> List[Tuple[int, int]]:
    """The fewest even spans of at most :data:`MAX_SERIAL_SLAB_ITEMS`
    items covering ``range(n_items)`` — what a superstep that runs in
    one thread (a one-thread engine, an inline shm superstep) uses."""
    if n_items <= 0:
        return []
    return _even_spans(n_items, -(-n_items // MAX_SERIAL_SLAB_ITEMS))


def slab_spans(
    n_items: int, engine: "Engine", min_chunk: int = 1
) -> List[Tuple[int, int]]:
    """Contiguous ``(lo, hi)`` spans covering ``range(n_items)``.

    The vectorised CSR kernels don't want one task per vertex — they
    want a handful of *array slabs* per thread, each processed with
    whole-slab numpy calls.  This sizes the slabs for the engine: about
    4 per thread (dynamic-scheduling slack without drowning in dispatch
    overhead), but never smaller than ``min_chunk`` items, so a
    64-thread engine sees a few hundred.  A one-thread engine has no
    one to share slack with and gets :func:`serial_spans`: a single
    span ``(0, n_items)`` up to :data:`MAX_SERIAL_SLAB_ITEMS` items,
    since every further slab would only repeat the slab body's fixed
    numpy cost.

    A simulated engine (one that sets ``replay_slabs``) gets
    ``min(n_items, replay_slabs)`` even slabs whatever its thread count
    and ``min_chunk``: its cost model already charges each task, and a
    trace recorded at one thread must keep enough tasks per superstep
    for :func:`~repro.parallel.backends.simulated.replay_trace` to
    spread them over the widest replay.
    """
    if n_items <= 0:
        return []
    replay_slabs = getattr(engine, "replay_slabs", None)
    if replay_slabs:
        return _even_spans(n_items, min(n_items, int(replay_slabs)))
    threads = max(1, int(getattr(engine, "threads", 1)))
    if threads == 1:
        return serial_spans(n_items)
    nslabs = max(1, min(4 * threads, -(-n_items // max(1, min_chunk))))
    return _even_spans(n_items, nslabs)


def parallel_for_slabs(
    engine: "Engine",
    n_items: int,
    task: SlabTask,
    work_fn: Optional[Callable[[Tuple[int, int], Any], float]] = None,
    min_chunk: int = 1,
) -> List[Any]:
    """One superstep over contiguous index slabs: the kernel
    ``task.ref`` runs once per ``(lo, hi)`` slab over ``task.arrays``.

    The slab decomposition preserves the vertex-ownership guarantee of
    the per-item loops it replaces — each index belongs to exactly one
    slab — while letting the task body be a batched numpy kernel.
    ``work_fn(span, result)`` reports work units exactly as in
    :meth:`Engine.parallel_for`.

    An engine that advertises ``supports_slab_dispatch`` (the
    shared-memory backend, possibly under checked/traced wrappers)
    receives the task itself and decides where the superstep runs.
    Every other engine runs the kernel as a closure over the caller's
    arrays, one task per slab, so kernels build one task and stay
    backend-agnostic.
    """
    if getattr(engine, "supports_slab_dispatch", False):
        return engine.parallel_for_slabs(  # type: ignore[attr-defined]
            n_items, task, work_fn=work_fn, min_chunk=min_chunk
        )
    kernel = resolve_slab_kernel(task.ref)
    spans = slab_spans(n_items, engine, min_chunk)
    return engine.parallel_for(
        spans,
        lambda span: kernel(task.arrays, task.params, span[0], span[1]),
        work_fn=work_fn,
    )


def _engine_table() -> Dict[str, Type[Any]]:
    """Backend name → engine class (shared by resolution and info)."""
    # imports deferred to avoid a cycle with backends importing BaseEngine
    from repro.parallel.backends.serial import SerialEngine
    from repro.parallel.backends.shm import SharedMemoryEngine
    from repro.parallel.backends.simulated import SimulatedEngine

    return {
        "serial": SerialEngine,
        "shm": SharedMemoryEngine,
        "simulated": SimulatedEngine,
    }


def engine_observability() -> Dict[str, str]:
    """Backend name → worker-span capability for ``repro info``.

    ``"inline"`` backends execute tasks in the master process, where a
    recording tracer sees their spans directly; ``"collected"``
    backends execute tasks in worker processes and produce full traces
    via the piggybacked collector protocol of :mod:`repro.obs.collect`.
    Either way ``--trace`` yields a single merged timeline.
    """
    return {
        name: str(getattr(cls, "worker_spans", "inline"))
        for name, cls in _engine_table().items()
    }


def resolve_engine(
    engine: Optional[Union[str, Engine]] = None,
    threads: int = 1,
    checked: Optional[bool] = None,
) -> Engine:
    """Coerce ``engine`` into an :class:`Engine` instance.

    Accepts an existing engine (returned unchanged), ``None`` (serial),
    or a backend name ``"serial" | "shm" | "simulated"``
    which is instantiated with ``threads``; an unknown name raises
    :class:`~repro.errors.UnknownEngineError` (picklable, carrying the
    registry names).

    ``checked=True`` wraps the resolved backend — any family — in a
    :class:`~repro.parallel.checked.CheckedEngine`, so every kernel run
    on it registers vertex writes with an ownership tracker (the
    dynamic sanitizer for the paper's §3.1 single-writer argument).
    ``checked=None`` (the default) consults the
    ``REPRO_CHECKED_ENGINES`` environment variable, which lets CI run
    the whole tier-1 suite under checked engines without touching call
    sites; ``checked=False`` forces wrapping off.  An engine that is
    already checked is never double-wrapped.

    While the active tracer is recording (``repro.obs.use_tracer`` with
    ``Tracer(recording=True)`` — the CLI's ``--trace`` and the bench
    runner do this), the resolved engine is additionally wrapped in a
    :class:`~repro.obs.engine.TracedEngine`, so every superstep of
    every kernel emits an annotated span; with the default passive or
    null tracer no wrapper is added and the resolved engine is exactly
    what it was before observability existed.
    """
    # imports deferred to avoid a cycle with backends importing BaseEngine
    from repro.obs.engine import TracedEngine
    from repro.obs.tracer import get_tracer
    from repro.parallel.backends.serial import SerialEngine
    from repro.parallel.checked import CheckedEngine

    if checked is None:
        checked = os.environ.get("REPRO_CHECKED_ENGINES", "").strip() not in (
            "",
            "0",
            "false",
        )

    def _wrap(resolved: Engine) -> Engine:
        if isinstance(resolved, TracedEngine):
            return resolved  # already fully wrapped (tracer outermost)
        if checked and not isinstance(resolved, CheckedEngine):
            resolved = CheckedEngine(resolved)
        if get_tracer().recording:
            resolved = TracedEngine(resolved)
        return resolved

    if engine is None:
        return _wrap(SerialEngine())
    if isinstance(engine, str):
        table = _engine_table()
        try:
            cls = table[engine]
        except KeyError:
            raise UnknownEngineError(engine, tuple(table)) from None
        return _wrap(cls(threads=threads) if cls is not SerialEngine else cls())
    if isinstance(engine, Engine):
        return _wrap(engine)
    raise EngineError(f"cannot interpret {engine!r} as an engine")
