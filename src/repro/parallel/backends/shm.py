"""Shared-memory process engine: persistent workers, planted arrays.

The generic :meth:`SharedMemoryEngine.parallel_for` path re-pickles
the task closure and its items on every superstep, so the vectorised
CSR kernels — whose tasks are closures over multi-megabyte arrays —
would never actually run multicore: they hit the "not picklable"
fallback.  The slab path fixes the transport, not the kernels:

1.  A slab superstep arrives as a :class:`~repro.parallel.api.SlabTask`
    bound to the caller's arrays.  Only a superstep the engine decides
    to *dispatch* plants them into named
    ``multiprocessing.shared_memory`` segments (:meth:`plant`).  Plants
    are keyed by logical name (``"csr.rev_indices"``, ``"sosp.dist"``,
    ...) and carry an optional *fingerprint*: re-planting with an
    unchanged fingerprint is a no-op (zero copies), which is how the
    CSR arrays survive the batches that do not write them — a deletion
    or re-weight moves only
    :attr:`~repro.graph.csr.CSRGraph.weights_stamp`, so the topology
    arrays keep their segments.
2.  A persistent ``spawn``-context pool attaches to segments **once**
    (pool initializer + a per-worker attach cache) and re-uses the
    mapping across supersteps.
3.  The dispatch payload carries only the kernel *reference*
    (``"module:function"``), the segment catalog (names/dtypes/shapes —
    ~100 bytes per array), scalar params, and the ``(lo, hi)`` slab
    spans.  A guard pickler refuses to serialise any ndarray into a
    dispatch payload, so "zero per-superstep graph pickling" is
    enforced by construction, not by convention.
4.  Workers write their slab's results into the planted copies; the
    paper's per-vertex ownership guarantee — each index belongs to
    exactly one slab — makes those writes race-free without locks,
    exactly as in §3.1.  Once every chunk has replied, the task's
    declared write set (:attr:`~repro.parallel.api.SlabTask.writes`)
    is copied back into the caller's arrays.

Whether a superstep dispatches at all is a measured decision
(:class:`DispatchPolicy`): the engine times its own inline and
dispatched supersteps per kernel and dispatches only when the model
predicts that the workers finish first.  An inline superstep runs the
kernel on the caller's arrays and costs what the serial engine pays.

Degraded modes (always loud, never wrong silently):

- generic ``parallel_for`` with an unpicklable closure, or one the
  worker cannot unpickle (e.g. ``fn`` defined in ``__main__`` under
  the spawn context) → serial fallback with a one-time warning;
- a worker process dying mid-superstep (``BrokenProcessPool``) → the
  pool is discarded and lazily re-created, and the superstep re-runs
  inline on the caller's arrays.  Those are still pristine — nothing
  is copied back before every chunk has replied — so writes applied
  before the crash (by the dead worker *or* by sibling chunks that
  completed) cannot hide improvements from the re-run's returned
  affected sets;
- a payload that does not survive the spawn round-trip raises
  :class:`~repro.errors.EngineError` and leaves the caller's arrays
  bitwise unchanged.

Lifecycle: :meth:`close` drains the pool gracefully and unlinks every
segment; an ``atexit`` finalizer covers engines nobody closes.  The
engine is reusable after ``close()`` (pool and plants re-materialise
lazily) and ``close()`` is idempotent.
"""

from __future__ import annotations

import atexit
import io
import itertools
import os
import pickle
import statistics
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context, shared_memory
from typing import (
    Any,
    Callable,
    Deque,
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
from repro.obs import clock
from repro.obs.collect import WorkerCapture, WorkerReport, merge_reports, obs_header
from repro.obs.metrics import get_metrics, labeled_name
from repro.obs.tracer import current_span
from repro.parallel.api import (
    BaseEngine,
    SlabTask,
    _even_spans,
    resolve_slab_kernel,
    serial_spans,
    slab_spans,
)

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["DispatchPolicy", "SharedMemoryEngine"]

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
#: First byte of a slab-chunk reply: ``(results, busy_s, report)``
#: follows — the chunk's results, the seconds its kernel calls took in
#: the worker (the dispatch policy's worker-rate sample) and the
#: piggybacked :class:`~repro.obs.collect.WorkerReport`, or ``None``
#: when the payload carried no observability header.
_TAG_SLAB = b"S"


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
) -> Tuple[Optional[List[Any]], Optional[str], List[WorkerReport], List[float]]:
    """Decode tagged worker replies.

    Returns ``(results, None, reports, busy)`` on success — ``reports``
    collects the piggybacked :class:`~repro.obs.collect.WorkerReport`
    of every reply that carried one, ``busy`` the worker seconds of
    every ``b"S"``-tagged slab reply — or ``(None, error_repr, reports,
    busy)`` when any worker reported an unpicklable payload.
    """
    out: List[Any] = []
    reports: List[WorkerReport] = []
    busy: List[float] = []
    for blob in parts:
        tag, body = blob[:1], blob[1:]
        if tag == _TAG_UNPICKLABLE:
            return None, pickle.loads(body), reports, busy
        if tag == _TAG_SLAB:
            results, busy_s, report = pickle.loads(body)
            out.extend(results)
            busy.append(float(busy_s))
            if report is not None:
                reports.append(report)
        elif tag == _TAG_RESULTS_OBS:
            results, report = pickle.loads(body)
            out.extend(results)
            reports.append(report)
        else:
            out.extend(pickle.loads(body))
    return out, None, reports, busy


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
    for name in segment_names:
        try:
            _attach_segment(name)
        except FileNotFoundError:
            continue  # re-planted away before the worker spawned


def _run_slab_chunk(payload: bytes) -> bytes:
    """Executed in the worker: run a chunk of slab spans of one superstep.

    The payload carries only ``(ref, catalog, params, spans)`` — plus
    an observability header as a fifth element when the master's tracer
    is recording, in which case each slab runs under a
    :class:`~repro.obs.collect.WorkerCapture` task span and the reply
    piggybacks the worker's report.  The arrays are materialised as
    views over the attached segments.  The reply (``b"S"``) also
    carries the seconds the kernel calls took here, which the master's
    :class:`DispatchPolicy` reads as its worker-rate sample.  The same
    tagged-reply protocol as :func:`_chunk_runner` keeps payload decode
    failures from poisoning the pool.
    """
    try:
        parts = pickle.loads(payload)
        ref, catalog, params, spans = parts[:4]
        header = parts[4] if len(parts) > 4 else None
        fn = resolve_slab_kernel(ref)
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
            t0 = clock.perf()
            results = [fn(arrays, params, lo, hi) for lo, hi in spans]
            busy = clock.perf() - t0
            return _TAG_SLAB + pickle.dumps((results, busy, None))
        with WorkerCapture(header) as cap:
            results = []
            busy = 0.0
            for lo, hi in spans:
                with cap.task("worker.slab", kernel=ref, lo=lo, hi=hi):
                    t0 = clock.perf()
                    results.append(fn(arrays, params, lo, hi))
                    busy += clock.perf() - t0
            report = cap.report()
        return _TAG_SLAB + pickle.dumps((results, busy, report))
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
                f"{obj.nbytes} bytes; pass it in SlabTask.arrays so a "
                f"dispatch plants it instead"
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


#: Where a slab superstep ran: on the master, dispatched because the
#: policy predicted a win (or the static rule said so), or dispatched
#: to measure the dispatch cost.
INLINE, DISPATCHED, PROBE = "inline", "dispatched", "probe"


class DecayedLine:
    """Least-squares line ``y = c + a·x`` over exponentially decayed sums.

    Recent observations weigh most (:attr:`DECAY` per observation), so
    the fit follows a host whose speed changes.
    """

    DECAY = 0.98

    def __init__(self) -> None:
        # decayed sums of 1, x, x², y and x·y
        self.s0 = self.s1 = self.s2 = self.t0 = self.t1 = 0.0

    def add(self, x: float, y: float) -> None:
        d = self.DECAY
        self.s0 = d * self.s0 + 1.0
        self.s1 = d * self.s1 + x
        self.s2 = d * self.s2 + x * x
        self.t0 = d * self.t0 + y
        self.t1 = d * self.t1 + x * y

    def fit(self) -> Optional[Tuple[float, float]]:
        """``(c, a)``, or ``None`` before any observation.

        While the observed ``x`` do not spread, the line goes through
        the origin; a fitted slope or intercept below zero (noise) is
        clamped to zero.
        """
        if self.s1 <= 0:
            return None
        det = self.s0 * self.s2 - self.s1 * self.s1
        if det <= 1e-9 * self.s0 * self.s2:
            return 0.0, self.t0 / self.s1
        a = max(0.0, (self.s0 * self.t1 - self.s1 * self.t0) / det)
        return max(0.0, (self.t0 - a * self.s1) / self.s0), a

    def mean_x(self) -> float:
        return self.s1 / self.s0 if self.s0 > 0 else 0.0


class SlabCost:
    """Running cost estimates of one slab kernel, in seconds.

    - ``c_i + a_i·n`` (:attr:`inline`): an inline superstep of ``n``
      items;
    - ``c_w + a_w·m`` (:attr:`worker`): the kernel seconds of one
      dispatched chunk of ``m`` items, as its worker reports them;
    - ``F`` (:attr:`fixed`): everything else one dispatch costs (plant,
      payload, worker wake-up, reply, copy-back) — its wall time minus
      the slowest chunk's kernel seconds; the median of the last
      :attr:`WINDOW` dispatches, so one slow outlier (a re-plant after
      a CSR rebuild) cannot pin a kernel inline.

    Both lines need their intercepts.  Every inline superstep, and every
    worker chunk, pays a fixed cost in numpy calls per slab (~0.2 ms on
    a 2-vCPU x86 host); folded into a per-item rate it reads several
    times the true per-item cost on small supersteps — inline after a
    wave's tail of small supersteps, which would send the next large
    ones to the workers, and on workers after a small probe, which
    would keep a host where dispatch wins from ever dispatching.
    Until a dispatch has been measured, the worker line is assumed to
    be the inline line.
    """

    WINDOW = 5

    def __init__(self) -> None:
        self.inline = DecayedLine()
        self.worker = DecayedLine()
        self.fixed_samples: Deque[float] = deque(maxlen=self.WINDOW)
        #: Model-inline supersteps since the last re-probe, and how
        #: many the next re-probe waits for (doubles after each).
        self.skipped = 0
        self.gap = 1

    @property
    def fixed(self) -> Optional[float]:
        return statistics.median(self.fixed_samples) if self.fixed_samples else None

    def worker_fit(self) -> Optional[Tuple[float, float]]:
        fit = self.worker.fit()
        return fit if fit is not None else self.inline.fit()


class DispatchPolicy:
    """Decides where each eligible slab superstep of a shm engine runs.

    An *eligible* superstep has at least two slabs on an engine with at
    least two workers; every other one runs inline without asking.

    With ``min_dispatch_items`` an ``int``, the rule is static: dispatch
    iff the superstep has at least that many items.  With ``None`` it
    is measured, per kernel (:class:`SlabCost`): a superstep of ``n``
    items over ``w`` workers dispatches iff
    ``F + c_w + a_w·n/w < c_i + a_i·n``.
    The first eligible superstep of a kernel runs inline to learn its
    inline line; later ones *probe* (dispatch to measure) until ``F``
    is known.  While the model says "inline", a re-probe follows after
    1, 2, 4, … model-inline supersteps, so a host where dispatch never
    wins pays O(log N) probes over N supersteps, and a host whose speed
    changes is measured again.  A due probe waits for a superstep no
    larger than the kernel's mean eligible superstep: where dispatch
    loses, the loss grows with the superstep.

    The policy reads no clock: the engine feeds it measured seconds
    through :meth:`observe_inline` and :meth:`observe_dispatch`.
    """

    def __init__(self, min_dispatch_items: Optional[int] = None) -> None:
        self.min_dispatch_items = (
            None if min_dispatch_items is None else int(min_dispatch_items)
        )
        self.costs: Dict[str, SlabCost] = {}

    def cost(self, ref: str) -> SlabCost:
        rec = self.costs.get(ref)
        if rec is None:
            rec = self.costs[ref] = SlabCost()
        return rec

    def choose(self, ref: str, n_items: int, workers: int) -> str:
        """``INLINE``, ``DISPATCHED`` or ``PROBE`` for one eligible
        superstep of ``n_items`` items over ``workers`` workers."""
        if self.min_dispatch_items is not None:
            return DISPATCHED if n_items >= self.min_dispatch_items else INLINE
        c = self.cost(ref)
        inline, worker, fixed = c.inline.fit(), c.worker_fit(), c.fixed
        if inline is None or worker is None:
            return INLINE
        small = n_items <= c.inline.mean_x()
        if fixed is None:
            return PROBE if small else INLINE
        c_i, a_i = inline
        c_w, a_w = worker
        if fixed + c_w + a_w * n_items / workers < c_i + a_i * n_items:
            return DISPATCHED
        c.skipped += 1
        if c.skipped > c.gap and small:
            c.skipped = 0
            c.gap *= 2
            return PROBE
        return INLINE

    def observe_inline(self, ref: str, n_items: int, seconds: float) -> None:
        """Record an eligible superstep that ran inline."""
        self.cost(ref).inline.add(n_items, seconds)

    def observe_dispatch(
        self, ref: str, wall: float, chunks: Sequence[Tuple[float, float]]
    ) -> None:
        """Record a dispatched superstep: its master-side wall seconds
        and each chunk's ``(items, worker kernel seconds)``."""
        if not chunks:
            return
        c = self.cost(ref)
        c.fixed_samples.append(max(0.0, wall - max(b for _, b in chunks)))
        for items, busy in chunks:
            c.worker.add(items, busy)


class SharedMemoryEngine(BaseEngine):
    """Execute slab supersteps inline or over shared-memory-planted arrays.

    Parameters
    ----------
    threads:
        Number of spawn-context worker processes.
    min_dispatch_items:
        ``None`` (the default) lets the engine's own measurements decide
        which slab supersteps dispatch (:class:`DispatchPolicy`).  An
        ``int`` is a static rule instead: supersteps smaller than this
        run inline on the master.  Tests pass ``1`` to force dispatch.
    min_items_per_process:
        Below ``threads * min_items_per_process`` items the generic
        ``parallel_for`` path skips the pool and runs inline.

    Attributes
    ----------
    policy:
        The :class:`DispatchPolicy` and its per-kernel estimates.
    last_dispatch_bytes:
        Total payload bytes of the most recent *dispatched* slab
        superstep — the pickle-counting tests assert this stays
        catalog-sized (hundreds of bytes) regardless of array sizes.
    last_obs_bytes:
        Serialized bytes of the worker observability reports
        piggybacked on the most recent dispatched superstep's replies;
        ``0`` whenever the tracer is not recording.
    last_superstep_recovery:
        True when the most recent superstep lost a worker process
        (``BrokenProcessPool``) and re-ran inline —
        :class:`~repro.obs.engine.TracedEngine` stamps the superstep
        span with ``recovery=true`` from this.
    last_slab_spans:
        The ``(lo, hi)`` spans of the most recent slab superstep
        (traced wrappers read it to reconstruct work distributions).
    last_slab_path:
        Where the most recent slab superstep ran: ``"inline"``,
        ``"dispatched"`` or ``"probe"``.
    dispatched_supersteps, inline_supersteps:
        Counters over slab supersteps (probes count as dispatched).
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
        min_dispatch_items: Optional[int] = None,
        min_items_per_process: int = 1,
    ) -> None:
        super().__init__(threads=threads)
        self.policy = DispatchPolicy(min_dispatch_items)
        self.min_dispatch_items = self.policy.min_dispatch_items
        self.min_items_per_process = int(min_items_per_process)
        self.last_dispatch_bytes = 0
        self.last_obs_bytes = 0
        self.last_superstep_recovery = False
        self.last_slab_spans: List[Tuple[int, int]] = []
        self.last_slab_path = INLINE
        self.dispatched_supersteps = 0
        self.inline_supersteps = 0
        self._plants: Dict[str, _Plant] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        # the first dispatch after a pool (re)start pays worker imports
        # and segment attaches, so it is not a cost sample
        self._pool_fresh = True
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
            self._pool_fresh = True
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
        computed against (callers pass the CSR ``stamp``).  While
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
        """One slab superstep, inline or dispatched (see module doc)."""
        spans = slab_spans(n_items, self, min_chunk)
        self.last_slab_spans = spans
        self.last_obs_bytes = 0
        self.last_superstep_recovery = False
        if not spans:
            return []
        fn = resolve_slab_kernel(task.ref)
        workers = min(self.threads, len(spans))
        eligible = workers > 1
        path = (
            self.policy.choose(task.ref, n_items, workers)
            if eligible else INLINE
        )
        self.last_slab_path = path
        self._count_path(path)
        if path == INLINE:
            spans = serial_spans(n_items)
            self.last_slab_spans = spans
            self.inline_supersteps += 1
            t0 = clock.perf()
            results = [fn(task.arrays, task.params, lo, hi) for lo, hi in spans]
            if eligible:
                self.policy.observe_inline(task.ref, n_items, clock.perf() - t0)
                self._export_cost(task.ref)
            self._account_work(spans, results, work_fn)
            return results
        self.dispatched_supersteps += 1
        pool = self._ensure_pool()
        sample = not self._pool_fresh
        self._pool_fresh = False
        t0 = clock.perf()
        views = {
            name: self.plant(name, array, task.fingerprints.get(name))
            for name, array in task.arrays.items()
        }
        catalog = {
            name: (self._plants[name].segment.name, view.dtype.str, view.shape)
            for name, view in views.items()
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
        try:
            futures = [pool.submit(_run_slab_chunk, p) for p in payloads]
            parts = [f.result() for f in futures]
        except BrokenProcessPool:
            self._reset_pool()
            self.last_superstep_recovery = True
            self._warn_once(
                "a worker process died mid-superstep; pool reset, "
                "re-running the superstep inline"
            )
            # nothing was copied back, so the caller's arrays are the
            # exact state the crashed superstep saw
            results = [fn(task.arrays, task.params, lo, hi) for lo, hi in spans]
            self._account_work(spans, results, work_fn)
            return results
        results, error, reports, busy = _decode_parts(parts)
        if header is not None and reports:
            self.last_obs_bytes = sum(len(pickle.dumps(r)) for r in reports)
            merge_reports(reports, header["t_send"], anchor=current_span())
        if results is None:
            raise EngineError(
                f"slab dispatch payload did not survive the spawn "
                f"round-trip: {error}"
            )
        copy_back = tuple(task.arrays) if task.writes is None else task.writes
        for name in copy_back:
            np.copyto(task.arrays[name], views[name], casting="no")
        if sample:
            chunk_items = [
                sum(hi - lo for lo, hi in spans[clo:chi])
                for clo, chi in _even_spans(len(spans), self.threads)
            ]
            self.policy.observe_dispatch(
                task.ref, clock.perf() - t0, list(zip(chunk_items, busy))
            )
            self._export_cost(task.ref)
        self._account_work(spans, results, work_fn)
        return results

    @staticmethod
    def _count_path(path: str) -> None:
        m = get_metrics()
        if m.enabled:
            m.counter(
                labeled_name("shm_supersteps_total", {"path": path}),
                "shm slab supersteps by where they ran",
            ).inc()

    def _export_cost(self, ref: str) -> None:
        """Publish ``ref``'s current estimates as gauges."""
        m = get_metrics()
        if not m.enabled:
            return
        c = self.policy.cost(ref)
        labels = {"kernel": ref}
        gauges = [("shm_dispatch_fixed_seconds", c.fixed,
                   "estimated fixed cost of one dispatch (F)")]
        inline, worker = c.inline.fit(), c.worker_fit()
        if inline is not None:
            gauges += [
                ("shm_inline_fixed_seconds", inline[0],
                 "estimated fixed cost of one inline superstep (c_i)"),
                ("shm_inline_seconds_per_item", inline[1],
                 "estimated inline seconds per item (a_i)"),
            ]
        if worker is not None:
            gauges += [
                ("shm_worker_fixed_seconds", worker[0],
                 "estimated fixed kernel cost of one worker chunk (c_w)"),
                ("shm_worker_seconds_per_item", worker[1],
                 "estimated worker seconds per item (a_w)"),
            ]
        for name, value, help_ in gauges:
            if value is not None:
                m.gauge(labeled_name(name, labels), help_).set(value)

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
        out, error, reports, _ = _decode_parts(parts)
        if header is not None and reports:
            merge_reports(reports, header["t_send"], anchor=current_span())
        if out is None:
            out = self._fallback(
                items, fn,
                f"task did not survive the spawn round-trip ({error})",
            )
        self._account_work(items, out, work_fn)
        return out
