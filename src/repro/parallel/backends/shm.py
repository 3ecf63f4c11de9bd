"""Shared-memory process engine: persistent workers, planted arrays.

The generic :meth:`SharedMemoryEngine.parallel_for` path re-pickles
the task closure and its items on every superstep, so the vectorised
CSR kernels — whose tasks are closures over multi-megabyte arrays —
would never actually run multicore: they hit the "not picklable"
fallback.  The slab path fixes the transport, not the kernels:

1.  The master **plants** each kernel array into a named
    ``multiprocessing.shared_memory`` segment (:meth:`plant`).  Plants
    are keyed by logical name (``"csr.rev_indices"``, ``"sosp.dist"``,
    ...) and carry an optional *fingerprint*: re-planting with an
    unchanged fingerprint is a no-op (zero copies), which is how the
    CSR base arrays survive the append-or-rebuild tail policy — a
    tail-only append keeps the
    :attr:`~repro.graph.csr.CSRGraph.base_stamp` and therefore the
    existing segments.
2.  A persistent ``spawn``-context pool attaches to segments **once**
    (pool initializer + a per-worker attach cache) and re-uses the
    mapping across supersteps.
3.  A superstep dispatches a :class:`~repro.parallel.api.SlabTask`:
    only the kernel *reference* (``"module:function"``), the segment
    catalog (names/dtypes/shapes — ~100 bytes per array), scalar
    params, and the ``(lo, hi)`` slab spans travel.  A guard pickler
    refuses to serialise any ndarray into a dispatch payload, so "zero
    per-superstep graph pickling" is enforced by construction, not by
    convention.

Workers write their slab's results directly into the planted output
arrays (``dist``/``parent``/``marked``); the paper's per-vertex
ownership guarantee — each index belongs to exactly one slab — makes
those writes race-free without locks, exactly as in §3.1.

Degraded modes (always loud, never wrong silently):

- generic ``parallel_for`` with an unpicklable closure, or one the
  worker cannot unpickle (e.g. ``fn`` defined in ``__main__`` under
  the spawn context) → serial fallback with a one-time warning;
- a worker process dying mid-superstep (``BrokenProcessPool``) → the
  pool is discarded and lazily re-created, the kernel's write set
  (:attr:`~repro.parallel.api.SlabTask.writes`; every catalog array
  when undeclared) is rolled back to a snapshot taken just before
  dispatch, and the superstep re-runs inline on the master's views.
  The rollback matters for correctness, not just hygiene: without it,
  writes applied before the crash (by the dead worker *or* by sibling
  chunks that completed) would no longer test as improvements on the
  re-run, so their vertices would silently drop out of the returned
  affected sets and downstream propagation.

Lifecycle: :meth:`close` drains the pool gracefully and unlinks every
segment; an ``atexit`` finalizer covers engines nobody closes.  The
engine is reusable after ``close()`` (pool and plants re-materialise
lazily) and ``close()`` is idempotent.
"""

from __future__ import annotations

import atexit
import importlib
import io
import itertools
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context, shared_memory
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.errors import EngineError
from repro.obs.collect import WorkerCapture, WorkerReport, merge_reports, obs_header
from repro.obs.tracer import current_span
from repro.parallel.api import (
    BaseEngine,
    SlabTask,
    _even_spans,
    serial_spans,
    slab_spans,
)

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["SharedMemoryEngine"]

#: Smallest segment ever allocated (shared memory cannot be 0 bytes,
#: and tiny plants grow in place up to this for free).
_MIN_SEGMENT_BYTES = 64

#: Worker-side attach cache bound: segments beyond this are closed
#: FIFO (replants that grow allocate fresh names, so a long-lived
#: worker would otherwise accumulate dead mappings).
_MAX_WORKER_SEGMENTS = 64

#: Unique segment-name source (per master process; the pid is also
#: embedded so concurrent test runs never collide).
_SEGMENT_SEQ = itertools.count(1)

# ----------------------------------------------------------------------
# tagged reply protocol (both dispatch paths)
# ----------------------------------------------------------------------

#: First byte of a worker reply: chunk results follow.
_TAG_RESULTS = b"R"
#: First byte of a worker reply: the payload did not survive the
#: spawn round-trip; the repr of the unpickle error follows.
_TAG_UNPICKLABLE = b"U"
#: First byte of a worker reply: ``(results, WorkerReport)`` follows —
#: chunk results plus the worker's piggybacked span/metric report (sent
#: only when the dispatch payload carried an observability header).
_TAG_RESULTS_OBS = b"O"


def _chunk_runner(payload: bytes) -> bytes:
    """Executed in the worker process: unpickle (fn, chunk), run, pickle.

    A payload that pickled fine on the master can still fail to
    *unpickle* here (spawn re-imports modules; ``__main__`` is not the
    master's ``__main__``).  Raising would mark the whole pool broken,
    so the failure is tagged and returned for the master to degrade to
    its serial fallback.  Exceptions raised by the task itself are NOT
    caught — they propagate to the master exactly like any other
    engine's task failure.

    The payload is ``(fn, chunk)`` — or ``(fn, chunk, header)`` when
    the master's tracer is recording, in which case the chunk runs
    under a :class:`~repro.obs.collect.WorkerCapture` and the reply
    piggybacks the worker's span/metric report on the ``b"O"`` tag.
    """
    try:
        parts = pickle.loads(payload)
        fn, chunk = parts[0], parts[1]
        header = parts[2] if len(parts) > 2 else None
    except Exception as exc:  # repro: noqa(R003) - reported to master, which warns and falls back
        return _TAG_UNPICKLABLE + pickle.dumps(repr(exc))
    if header is None:
        return _TAG_RESULTS + pickle.dumps([fn(item) for item in chunk])
    with WorkerCapture(header) as cap:
        with cap.task("worker.chunk", op="parallel_for", items=len(chunk)):
            results = [fn(item) for item in chunk]
        report = cap.report()
    return _TAG_RESULTS_OBS + pickle.dumps((results, report))


def _decode_parts(
    parts: Sequence[bytes],
) -> Tuple[Optional[List[Any]], Optional[str], List[WorkerReport]]:
    """Decode tagged worker replies.

    Returns ``(results, None, reports)`` on success — ``reports``
    collects the piggybacked :class:`~repro.obs.collect.WorkerReport`
    of every ``b"O"``-tagged reply (empty for the legacy ``b"R"`` tag)
    — or ``(None, error_repr, reports)`` when any worker reported an
    unpicklable payload.
    """
    out: List[Any] = []
    reports: List[WorkerReport] = []
    for blob in parts:
        tag, body = blob[:1], blob[1:]
        if tag == _TAG_UNPICKLABLE:
            return None, pickle.loads(body), reports
        if tag == _TAG_RESULTS_OBS:
            results, report = pickle.loads(body)
            out.extend(results)
            reports.append(report)
        else:
            out.extend(pickle.loads(body))
    return out, None, reports


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

#: name -> attached segment, cached for the worker's lifetime ("attach
#: once"): populated by the pool initializer and lazily afterwards.
_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}
#: Segments of the chunk currently executing — exempt from eviction.
#: Numpy does not keep the buffer of an ``np.ndarray(buffer=seg.buf)``
#: view exported (it releases the Py_buffer right after grabbing the
#: pointer), so closing a viewed segment would not fail loudly — the
#: view would silently dangle over unmapped memory.
_PINNED: set = set()
#: "module:qualname" -> resolved kernel callable.
_KERNELS: Dict[str, Callable[..., Any]] = {}


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to (or return the cached mapping of) a named segment.

    The cache is LRU: a hit re-inserts the entry at the hot end, so
    the long-lived CSR base segments (touched by every superstep) are
    never the eviction victims — plain FIFO would evict exactly those
    first once enough replant churn accumulated.  Eviction closes the
    coldest entry that is neither pinned by the chunk currently
    materialising its catalog (:data:`_PINNED` — its views would
    silently dangle) nor still exporting its buffer (``BufferError``
    on ``close()``); such entries are kept for a later eviction
    instead of failing or corrupting the superstep.
    """
    seg = _SEGMENTS.pop(name, None)
    if seg is None:
        seg = shared_memory.SharedMemory(name=name)
        # Attaching re-registers the segment with the resource tracker
        # (unconditionally on POSIX up to 3.12).  Pool workers share
        # the master's tracker process and its cache is a set, so the
        # duplicate registration is a no-op — do NOT unregister here:
        # that would remove the master's entry and break its unlink
        # accounting.
        while len(_SEGMENTS) >= _MAX_WORKER_SEGMENTS:
            evicted = False
            for old_name in list(_SEGMENTS):
                if old_name in _PINNED:
                    continue
                old = _SEGMENTS.pop(old_name)
                try:
                    old.close()
                except BufferError:
                    _SEGMENTS[old_name] = old  # still exported; defer
                    continue
                evicted = True
                break
            if not evicted:
                break  # everything evictable is in use; exceed the bound
    _SEGMENTS[name] = seg
    return seg


def _worker_init(segment_names: Tuple[str, ...]) -> None:
    """Pool initializer: attach to the already-planted segments once.

    Segments planted after the pool spawned are attached lazily by
    :func:`_attach_segment` on first use and then cached the same way.
    """
    _SEGMENTS.clear()
    _KERNELS.clear()
    for name in segment_names:
        try:
            _attach_segment(name)
        except FileNotFoundError:
            continue  # re-planted away before the worker spawned


def _resolve_kernel(ref: str) -> Callable[..., Any]:
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


def _run_slab_chunk(payload: bytes) -> bytes:
    """Executed in the worker: run a chunk of slab spans of one superstep.

    The payload carries only ``(ref, catalog, params, spans)`` — plus
    an observability header as a fifth element when the master's tracer
    is recording, in which case each slab runs under a
    :class:`~repro.obs.collect.WorkerCapture` task span and the reply
    piggybacks the worker's report on the ``b"O"`` tag.  The arrays are
    materialised as views over the attached segments.  The same
    tagged-reply protocol as :func:`_chunk_runner` keeps payload
    decode failures from poisoning the pool.
    """
    try:
        parts = pickle.loads(payload)
        ref, catalog, params, spans = parts[:4]
        header = parts[4] if len(parts) > 4 else None
        fn = _resolve_kernel(ref)
        # Pin the catalog's segments for the duration of the chunk:
        # with > _MAX_WORKER_SEGMENTS names in one catalog, a later
        # attach in this comprehension could otherwise evict (close) a
        # segment an earlier view is already mapped over.
        _PINNED.update(name for name, _, _ in catalog.values())
        arrays = {
            logical: np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=_attach_segment(name).buf
            )
            for logical, (name, dtype, shape) in catalog.items()
        }
    except Exception as exc:  # repro: noqa(R003) - reported to master, which degrades loudly
        _PINNED.clear()
        return _TAG_UNPICKLABLE + pickle.dumps(repr(exc))
    try:
        if header is None:
            return _TAG_RESULTS + pickle.dumps(
                [fn(arrays, params, lo, hi) for lo, hi in spans]
            )
        with WorkerCapture(header) as cap:
            results = []
            for lo, hi in spans:
                with cap.task("worker.slab", kernel=ref, lo=lo, hi=hi):
                    results.append(fn(arrays, params, lo, hi))
            report = cap.report()
        return _TAG_RESULTS_OBS + pickle.dumps((results, report))
    finally:
        _PINNED.clear()


# ----------------------------------------------------------------------
# master side
# ----------------------------------------------------------------------


class _GuardPickler(pickle.Pickler):
    """Pickler that refuses to serialise ndarrays.

    Slab dispatch must move indices, never data — any ndarray reaching
    this pickler means an array leaked into ``params`` (or a kernel
    ref closed over one) instead of being planted.  Failing the
    superstep here turns "zero per-superstep graph pickling" from a
    performance hope into an enforced invariant.
    """

    def reducer_override(self, obj: Any) -> Any:
        if isinstance(obj, np.ndarray):
            raise EngineError(
                f"slab dispatch tried to pickle an ndarray of "
                f"{obj.nbytes} bytes; plant() it and pass its logical "
                f"name in SlabTask.arrays instead"
            )
        return NotImplemented


def _dumps_guarded(obj: Any) -> bytes:
    """``pickle.dumps`` through the ndarray guard."""
    buf = io.BytesIO()
    _GuardPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


class _Plant:
    """One planted array: its segment, current view, and bookkeeping."""

    __slots__ = ("segment", "capacity", "view", "fingerprint",
                 "generation", "copies")

    def __init__(self, segment: shared_memory.SharedMemory,
                 capacity: int) -> None:
        self.segment = segment
        self.capacity = capacity
        self.view: Optional[np.ndarray] = None
        self.fingerprint: Optional[Tuple[Any, ...]] = None
        self.generation = 0
        self.copies = 0


class SharedMemoryEngine(BaseEngine):
    """Execute slab supersteps over shared-memory-planted arrays.

    Parameters
    ----------
    threads:
        Number of spawn-context worker processes.
    min_dispatch_items:
        Slab supersteps smaller than this run inline on the master
        (dispatch costs ~a millisecond; tiny frontiers aren't worth
        it).  Tests pass ``1`` to force dispatch.
    min_items_per_process:
        Below ``threads * min_items_per_process`` items the generic
        ``parallel_for`` path skips the pool and runs inline.

    Attributes
    ----------
    last_dispatch_bytes:
        Total payload bytes of the most recent *dispatched* slab
        superstep — the pickle-counting tests assert this stays
        catalog-sized (hundreds of bytes) regardless of array sizes.
    last_obs_bytes:
        Serialized bytes of the worker observability reports
        piggybacked on the most recent dispatched superstep's replies;
        ``0`` whenever the tracer is not recording (the reply payloads
        are then byte-identical to the pre-collection protocol).
    last_superstep_recovery:
        True when the most recent superstep lost a worker process
        (``BrokenProcessPool``) and re-ran inline after rollback —
        :class:`~repro.obs.engine.TracedEngine` stamps the superstep
        span with ``recovery=true`` from this.
    last_slab_spans:
        The ``(lo, hi)`` spans of the most recent slab superstep
        (traced wrappers read it to reconstruct work distributions).
    dispatched_supersteps, inline_supersteps:
        Counters over slab supersteps.
    """

    name = "shm"
    #: Advertises the :func:`~repro.parallel.api.parallel_for_slabs`
    #: fast path (checked/traced wrappers forward it via delegation).
    supports_slab_dispatch = True
    #: Workers ship spans/metrics back piggybacked on the tagged reply
    #: (see :mod:`repro.obs.collect`); ``repro info`` surfaces this.
    worker_spans = "collected"

    def __init__(
        self,
        threads: int = 2,
        min_dispatch_items: int = 2048,
        min_items_per_process: int = 1,
    ) -> None:
        super().__init__(threads=threads)
        self.min_dispatch_items = int(min_dispatch_items)
        self.min_items_per_process = int(min_items_per_process)
        self.last_dispatch_bytes = 0
        self.last_obs_bytes = 0
        self.last_superstep_recovery = False
        self.last_slab_spans: List[Tuple[int, int]] = []
        self.dispatched_supersteps = 0
        self.inline_supersteps = 0
        self._plants: Dict[str, _Plant] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._leaked_segments: List[shared_memory.SharedMemory] = []
        self._warned = False
        self._atexit_registered = False
        # segments may only be unlinked by the process that created
        # them: a forked child inherits this engine object (and its
        # atexit finalizer) with segment names that belong to the
        # parent — unlinking from the child would tear down the
        # parent's live state underneath it
        self._owner_pid = os.getpid()
        self._snapshot_key: Optional[Tuple[Any, ...]] = None
        self._snapshot: Optional[Dict[str, np.ndarray]] = None
        self.snapshot_exports = 0
        self.snapshot_copies = 0

    # ------------------------------------------------------- lifecycle
    def _ensure_finalizer(self) -> None:
        if not self._atexit_registered:
            atexit.register(self.close)
            self._atexit_registered = True

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.threads,
                mp_context=get_context("spawn"),
                initializer=_worker_init,
                initargs=(
                    tuple(p.segment.name for p in self._plants.values()),
                ),
            )
            self._ensure_finalizer()
        return self._pool

    def _reset_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Drain the pool and unlink every planted segment (idempotent).

        The engine stays usable afterwards: the pool and any re-planted
        arrays come back lazily on the next superstep.  Teardown is
        strictly per-instance: each engine only ever unlinks segments
        it created itself, and only from the process that created them
        — a forked child (or a second engine's finalizer running at
        interpreter exit) can never unlink this engine's live
        segments.
        """
        owner = os.getpid() == self._owner_pid
        if self._pool is not None:
            if owner:
                # pool workers are this process's children; a forked
                # child must drop the handle without joining them
                self._pool.shutdown(wait=True)
            self._pool = None
        for rec in self._plants.values():
            self._release(rec, unlink=owner)
        self._plants.clear()
        self._snapshot_key = None
        self._snapshot = None
        if self._atexit_registered:
            atexit.unregister(self.close)
            self._atexit_registered = False

    def _release(self, rec: _Plant, unlink: bool = True) -> None:
        rec.view = None
        if unlink:
            try:
                rec.segment.unlink()
            except FileNotFoundError:  # repro: noqa(R003) - already-unlinked name; double release must stay safe
                pass
        try:
            rec.segment.close()
        except BufferError:
            # a caller still holds a view into the segment; the name is
            # already unlinked, so keep the mapping alive until process
            # exit instead of failing a routine close()
            self._leaked_segments.append(rec.segment)

    def __enter__(self) -> "SharedMemoryEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ---------------------------------------------------------- plants
    @staticmethod
    def _segment_name() -> str:
        return f"repro_{os.getpid()}_{next(_SEGMENT_SEQ)}"

    def plant(
        self,
        name: str,
        array: np.ndarray,
        fingerprint: Optional[Tuple[Any, ...]] = None,
    ) -> np.ndarray:
        """Publish ``array`` under ``name``; return the shared view.

        The returned ndarray is backed by the shared segment: master
        writes are visible to workers and vice versa.  With a
        ``fingerprint`` that matches the previous plant of ``name``
        (same dtype/shape), the existing segment is returned without
        copying — the incremental re-plant path for CSR base arrays.
        Otherwise the data is copied in, reusing the segment in place
        when its capacity suffices and allocating a fresh (power-of-
        two-sized) segment when it does not.
        """
        arr = np.ascontiguousarray(array)
        rec = self._plants.get(name)
        if (
            rec is not None
            and rec.view is not None
            and fingerprint is not None
            and rec.fingerprint == fingerprint
            and rec.view.dtype == arr.dtype
            and rec.view.shape == arr.shape
        ):
            return rec.view
        nbytes = int(arr.nbytes)
        if rec is None or rec.capacity < nbytes:
            if rec is not None:
                self._release(rec, unlink=os.getpid() == self._owner_pid)
            capacity = max(
                _MIN_SEGMENT_BYTES, 1 << max(0, nbytes - 1).bit_length()
            )
            segment = shared_memory.SharedMemory(
                create=True, size=capacity, name=self._segment_name()
            )
            rec = _Plant(segment, capacity)
            self._plants[name] = rec
            self._ensure_finalizer()
        rec.view = np.ndarray(arr.shape, dtype=arr.dtype,
                              buffer=rec.segment.buf)
        np.copyto(rec.view, arr, casting="no")
        rec.fingerprint = fingerprint
        rec.generation += 1
        rec.copies += 1
        return rec.view

    @property
    def plant_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-plant bookkeeping (tests and the bench report read this)."""
        return {
            name: {
                "segment": rec.segment.name,
                "capacity": rec.capacity,
                "generation": rec.generation,
                "copies": rec.copies,
                "fingerprint": rec.fingerprint,
            }
            for name, rec in self._plants.items()
        }

    # -------------------------------------------------- MVCC snapshots
    def publish_snapshot(
        self,
        arrays: Mapping[str, np.ndarray],
        stamp: Tuple[Any, ...],
    ) -> Dict[str, np.ndarray]:
        """Immutable, epoch-publishable copies of ``arrays``, keyed on
        ``stamp``.

        ``stamp`` plays the same role fingerprints play for
        :meth:`plant`: it names the graph state the arrays were
        computed against (callers pass the CSR ``tail_stamp``).  While
        the stamp is unchanged since the previous export, the cached
        read-only arrays are returned without copying — repeated
        snapshot reads between update batches are zero-copy.  A new
        stamp copies each array once and freezes it
        (``writeable=False``), so a published snapshot can never
        observe a later in-place update — the torn-read guarantee the
        always-on service builds its epochs on.
        """
        names = tuple(sorted(arrays))
        key = (names, stamp)
        if self._snapshot is not None and self._snapshot_key == key:
            self.snapshot_exports += 1
            return self._snapshot
        out: Dict[str, np.ndarray] = {}
        for name in names:
            frozen = np.array(arrays[name], copy=True)
            frozen.setflags(write=False)
            out[name] = frozen
        self._snapshot_key = key
        self._snapshot = out
        self.snapshot_exports += 1
        self.snapshot_copies += 1
        return out

    # ----------------------------------------------------- slab path
    def parallel_for_slabs(
        self,
        n_items: int,
        task: SlabTask,
        work_fn: Optional[Callable[[Tuple[int, int], Any], float]] = None,
        min_chunk: int = 1,
    ) -> List[Any]:
        """One slab superstep dispatched by reference (see module doc)."""
        spans = slab_spans(n_items, self, min_chunk)
        self.last_slab_spans = spans
        self.last_obs_bytes = 0
        self.last_superstep_recovery = False
        if not spans:
            return []
        missing = [a for a in task.arrays if a not in self._plants]
        if missing:
            raise EngineError(
                f"SlabTask references unplanted arrays {missing}; call "
                f"plant() before dispatching"
            )
        fn = _resolve_kernel(task.ref)
        arrays = {a: self._plants[a].view for a in task.arrays}
        if (
            self.threads == 1
            or len(spans) == 1
            or n_items < self.min_dispatch_items
        ):
            spans = serial_spans(n_items)
            self.last_slab_spans = spans
            self.inline_supersteps += 1
            results = [fn(arrays, task.params, lo, hi) for lo, hi in spans]
            self._account_work(spans, results, work_fn)
            return results
        catalog = {
            a: (
                self._plants[a].segment.name,
                arrays[a].dtype.str,
                arrays[a].shape,
            )
            for a in task.arrays
        }
        params = dict(task.params)
        header = obs_header()
        payloads = [
            _dumps_guarded(
                (task.ref, catalog, params, spans[clo:chi])
                if header is None
                else (task.ref, catalog, params, spans[clo:chi], header)
            )
            for clo, chi in _even_spans(len(spans), self.threads)
        ]
        self.last_dispatch_bytes = sum(len(p) for p in payloads)
        self.dispatched_supersteps += 1
        # Pre-dispatch snapshot of the kernel's write set: recovery
        # must re-run against the exact state the crashed superstep
        # saw.  Re-running over already-mutated arrays would be
        # silently wrong — improvements applied before the crash (by
        # the dead worker or by completed sibling chunks) no longer
        # test as improvements, so the re-run would omit them from its
        # returned results (e.g. drop vertices from an affected set).
        rollback = {
            a: np.array(arrays[a], copy=True)
            for a in (task.arrays if task.writes is None else task.writes)
        }
        try:
            pool = self._ensure_pool()
            futures = [pool.submit(_run_slab_chunk, p) for p in payloads]
            parts = [f.result() for f in futures]
        except BrokenProcessPool:
            self._reset_pool()
            self.last_superstep_recovery = True
            self._warn_once(
                "a worker process died mid-superstep; pool reset, "
                "write set rolled back, re-running the superstep inline"
            )
            for a, snap in rollback.items():
                np.copyto(arrays[a], snap, casting="no")
            results = [fn(arrays, task.params, lo, hi) for lo, hi in spans]
            self._account_work(spans, results, work_fn)
            return results
        results, error, reports = _decode_parts(parts)
        if header is not None and reports:
            self.last_obs_bytes = sum(len(pickle.dumps(r)) for r in reports)
            merge_reports(reports, header["t_send"], anchor=current_span())
        if results is None:
            # make the failed superstep atomic: chunks that did run
            # have already written into the shared views
            for a, snap in rollback.items():
                np.copyto(arrays[a], snap, casting="no")
            raise EngineError(
                f"slab dispatch payload did not survive the spawn "
                f"round-trip: {error}"
            )
        self._account_work(spans, results, work_fn)
        return results

    # ----------------------------------------------------- generic path
    def _warn_once(self, reason: str) -> None:
        if not self._warned:
            warnings.warn(
                f"SharedMemoryEngine {reason}.",
                RuntimeWarning,
                stacklevel=4,
            )
            self._warned = True

    def _fallback(self, items: Sequence[T], fn: Callable[[T], R],
                  reason: str) -> List[R]:
        self._warn_once(f"{reason}; running serially")
        return [fn(item) for item in items]

    def parallel_for(
        self,
        items: Sequence[T],
        fn: Callable[[T], R],
        work_fn: Optional[Callable[[T, R], float]] = None,
    ) -> List[R]:
        n = len(items)
        if n == 0:
            return []
        self.last_superstep_recovery = False
        if self.threads == 1 or n < self.threads * self.min_items_per_process:
            results = [fn(item) for item in items]
            self._account_work(items, results, work_fn)
            return results
        chunks = [
            list(items[lo:hi]) for lo, hi in _even_spans(n, self.threads)
        ]
        header = obs_header()
        try:
            payloads = [
                pickle.dumps(
                    (fn, chunk) if header is None else (fn, chunk, header)
                )
                for chunk in chunks
            ]
        except (pickle.PicklingError, AttributeError, TypeError):
            results = self._fallback(items, fn, "task is not picklable")
            self._account_work(items, results, work_fn)
            return results
        try:
            pool = self._ensure_pool()
            futures = [pool.submit(_chunk_runner, p) for p in payloads]
            parts = [f.result() for f in futures]
        except BrokenProcessPool:
            self._reset_pool()
            self.last_superstep_recovery = True
            results = self._fallback(
                items, fn, "a worker process died mid-superstep (pool reset)"
            )
            self._account_work(items, results, work_fn)
            return results
        out, error, reports = _decode_parts(parts)
        if header is not None and reports:
            merge_reports(reports, header["t_send"], anchor=current_span())
        if out is None:
            out = self._fallback(
                items, fn,
                f"task did not survive the spawn round-trip ({error})",
            )
        self._account_work(items, out, work_fn)
        return out
