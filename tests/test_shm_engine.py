"""Unit tests for :class:`SharedMemoryEngine`.

Covers, per the tentpole and satellites:

- plant / fingerprinted re-plant (zero-copy for unchanged CSR bases),
- plant on dispatch: a task binds the caller's arrays, a dispatched
  superstep copies its declared write set back, and a failed one
  leaves the caller's arrays bitwise unchanged,
- zero per-superstep array pickling (the dispatch payload stays
  catalog-sized no matter how large the planted arrays get, and the
  guard pickler hard-fails on smuggled ndarrays),
- worker crash recovery (pool reset + inline re-run),
- double-close idempotency, segment unlinking, engine reuse,
- the generic ``parallel_for`` path: inline below its threshold,
  pickled functions across processes, the serial fallback for
  closures, the chunk runner's reply tags and its worker-side
  unpickle fallback,
- graceful pool close and reuse,
- cross-backend work-accounting parity, and
- non-empty traced work distributions on both shm dispatch paths.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.errors import EngineError
from repro.obs.engine import TracedEngine
from repro.obs.tracer import Tracer, use_tracer
from repro.parallel import (
    SerialEngine,
    SharedMemoryEngine,
    SimulatedEngine,
    SlabTask,
    resolve_engine,
)
from tests._shm_support import MainOnlyFn, square

DOUBLE = "tests._shm_support:double_slab"
PIDS = "tests._shm_support:pid_slab"
CRASH = "tests._shm_support:crash_if_worker_slab"
CRASH_AFTER_WRITE = "tests._shm_support:crash_after_write_slab"
SNEAKY = "tests._shm_support:sneaky_slab"


def doubled(out):
    """A DOUBLE task bound to ``out``."""
    return SlabTask(ref=DOUBLE, arrays={"out": out})


@pytest.fixture()
def eng():
    e = SharedMemoryEngine(threads=2, min_dispatch_items=1)
    yield e
    e.close()


class TestPlant:
    def test_plant_copies_and_returns_view(self, eng):
        arr = np.arange(8, dtype=np.float64)
        view = eng.plant("out", arr)
        assert view is not arr
        np.testing.assert_array_equal(view, arr)
        arr[0] = 99.0  # caller's array is decoupled from the segment
        assert view[0] == 0.0

    def test_fingerprint_match_skips_copy(self, eng):
        a = np.arange(16, dtype=np.int64)
        v1 = eng.plant("csr.x", a, fingerprint=(7, 1))
        v2 = eng.plant("csr.x", a, fingerprint=(7, 1))
        assert v1 is v2
        assert eng.plant_stats["csr.x"]["copies"] == 1

    def test_fingerprint_change_recopies(self, eng):
        a = np.arange(16, dtype=np.int64)
        eng.plant("csr.x", a, fingerprint=(7, 1))
        eng.plant("csr.x", a + 1, fingerprint=(7, 2))
        assert eng.plant_stats["csr.x"]["copies"] == 2

    def test_capacity_reuse_and_growth(self, eng):
        eng.plant("out", np.zeros(8, dtype=np.float64))
        seg_small = eng.plant_stats["out"]["segment"]
        # shrinking fits in place: same segment, data re-copied
        eng.plant("out", np.ones(4, dtype=np.float64))
        assert eng.plant_stats["out"]["segment"] == seg_small
        assert eng.plant_stats["out"]["copies"] == 2
        # growth allocates a fresh segment and unlinks the old one
        eng.plant("out", np.zeros(4096, dtype=np.float64))
        assert eng.plant_stats["out"]["segment"] != seg_small
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=seg_small)

    def test_dtype_change_under_same_fingerprint_recopies(self, eng):
        eng.plant("x", np.zeros(8, dtype=np.float64), fingerprint=(1,))
        v = eng.plant("x", np.zeros(8, dtype=np.int32), fingerprint=(1,))
        assert v.dtype == np.int32


class TestSlabDispatch:
    def test_dispatch_runs_and_writes_shared(self, eng):
        data = np.arange(64, dtype=np.float64)
        out = data.copy()
        results = eng.parallel_for_slabs(64, doubled(out))
        assert eng.dispatched_supersteps == 1
        assert eng.last_slab_path == "dispatched"
        np.testing.assert_array_equal(out, data * 2)  # copied back
        assert sum(results) == float((data * 2).sum())

    def test_zero_per_superstep_array_pickling(self, eng):
        """Payload size is catalog-sized and independent of array size."""
        sizes = {}
        for n in (1 << 12, 1 << 16):
            eng.parallel_for_slabs(n, doubled(np.ones(n, dtype=np.float64)))
            sizes[n] = eng.last_dispatch_bytes
        assert all(b < 2048 for b in sizes.values()), sizes
        # 16x more array data, (near-)identical payload: nothing but
        # the catalog and the (lo, hi) spans ever crosses the boundary
        assert sizes[1 << 16] - sizes[1 << 12] < 256

    def test_guard_refuses_ndarray_in_params(self, eng):
        task = SlabTask(
            ref=DOUBLE, arrays={"out": np.zeros(4096, dtype=np.float64)},
            params={"smuggled": np.arange(3)},
        )
        with pytest.raises(EngineError, match="plant"):
            eng.parallel_for_slabs(4096, task)

    def test_unplanted_array_rejected(self):
        # a task names no arrays it does not bind: names alone are refused
        with pytest.raises(EngineError, match="ndarrays"):
            SlabTask(ref=DOUBLE, arrays=("never-planted",))

    def test_runs_in_worker_processes(self, eng):
        out = np.zeros(4096, dtype=np.int64)
        results = eng.parallel_for_slabs(
            4096, SlabTask(ref=PIDS, arrays={"out": out})
        )
        pids = {pid for _, _, pid in results}
        assert pids and os.getpid() not in pids
        assert set(np.unique(out)) <= pids

    def test_small_supersteps_run_inline(self):
        e = SharedMemoryEngine(threads=2, min_dispatch_items=10_000)
        try:
            out = np.ones(32, dtype=np.float64)
            e.parallel_for_slabs(32, doubled(out))
            assert e.inline_supersteps == 1 and e.dispatched_supersteps == 0
            np.testing.assert_array_equal(out, np.full(32, 2.0))
            assert e.plant_stats == {}  # an inline superstep plants nothing
        finally:
            e.close()

    def test_only_declared_writes_are_copied_back(self):
        """``writes`` is the copy-back set: an undeclared write is kept
        when the superstep runs inline and lost when it is dispatched —
        the engine-dependent result R006 exists to rule out."""
        kept = {}
        for cutoff in (1, 10_000):  # dispatched, then inline
            e = SharedMemoryEngine(threads=2, min_dispatch_items=cutoff)
            try:
                out = np.zeros(256, dtype=np.float64)
                aux = np.zeros(256, dtype=np.float64)
                e.parallel_for_slabs(256, SlabTask(  # repro: noqa(R006)
                    ref=SNEAKY, arrays={"out": out, "aux": aux},
                    writes=("out",),
                ))
                np.testing.assert_array_equal(out, 1.0)
                kept[e.last_slab_path] = bool(aux.any())
            finally:
                e.close()
        assert kept == {"dispatched": False, "inline": True}

    def test_failed_payload_leaves_arrays_bitwise_unchanged(
        self, eng, monkeypatch
    ):
        """A payload the workers cannot decode raises, and the caller's
        arrays are exactly what they were: nothing was copied back, and
        no rollback copy of them was ever taken."""
        out = np.arange(4096, dtype=np.float64)
        before = out.copy()
        touched = []
        real_copyto, real_array, real_copy = np.copyto, np.array, np.copy

        def spy_copyto(dst, src, *a, **k):
            if dst is out:
                touched.append("copyto")
            return real_copyto(dst, src, *a, **k)

        def spy_array(obj, *a, **k):
            if obj is out:
                touched.append("array")
            return real_array(obj, *a, **k)

        def spy_copy(obj, *a, **k):
            if obj is out:
                touched.append("copy")
            return real_copy(obj, *a, **k)

        monkeypatch.setattr(np, "copyto", spy_copyto)
        monkeypatch.setattr(np, "array", spy_array)
        monkeypatch.setattr(np, "copy", spy_copy)
        task = SlabTask(ref=DOUBLE, arrays={"out": out},
                        params={"poison": MainOnlyFn()}, writes=("out",))
        with pytest.raises(EngineError, match="spawn round-trip"):
            eng.parallel_for_slabs(4096, task)
        monkeypatch.undo()
        assert touched == []
        np.testing.assert_array_equal(out, before)
        assert out.tobytes() == before.tobytes()

    def test_worker_crash_recovery(self, eng):
        out = np.zeros(4096, dtype=np.int64)
        task = SlabTask(ref=CRASH, arrays={"out": out},
                        params={"master_pid": os.getpid()})
        with pytest.warns(RuntimeWarning, match="died mid-superstep"):
            results = eng.parallel_for_slabs(4096, task)
        # inline re-run completed the superstep on the caller's arrays
        assert sum(results) == 4096
        np.testing.assert_array_equal(out, np.ones(4096, dtype=np.int64))
        # and the engine recovered: the next dispatch uses a fresh pool
        out = eng.parallel_for_slabs(
            4096, doubled(np.ones(4096, dtype=np.float64))
        )
        assert sum(out) == 2.0 * 4096

    def test_crash_after_write_loses_no_improvements(self, eng):
        """A worker that mutates its slab and then dies must not make
        the recovery re-run under-report: workers write planted copies,
        and nothing is copied back before every chunk replied, so every
        pre-crash write still tests as an improvement on the re-run
        over the caller's arrays.  (Were the crashed writes visible,
        the re-run would see the mutated state and silently drop those
        results — lost `affected` vertices in the real kernels.)"""
        out = np.zeros(4096, dtype=np.int64)
        task = SlabTask(ref=CRASH_AFTER_WRITE, arrays={"out": out},
                        params={"master_pid": os.getpid()},
                        writes=("out",))
        with pytest.warns(RuntimeWarning, match="died mid-superstep"):
            results = eng.parallel_for_slabs(4096, task)
        assert sum(results) == 4096  # every improvement re-reported
        np.testing.assert_array_equal(out, np.ones(4096, dtype=np.int64))

    def test_undeclared_write_set_snapshots_whole_catalog(self, eng):
        """``writes=None`` (unknown) must stay conservative: the same
        crash-after-write recovery works with no ``writes`` declared."""
        task = SlabTask(ref=CRASH_AFTER_WRITE,
                        arrays={"out": np.zeros(4096, dtype=np.int64)},
                        params={"master_pid": os.getpid()})
        with pytest.warns(RuntimeWarning, match="died mid-superstep"):
            results = eng.parallel_for_slabs(4096, task)
        assert sum(results) == 4096


class TestLifecycle:
    def test_double_close_idempotent_and_reusable(self):
        e = SharedMemoryEngine(threads=2, min_dispatch_items=1)
        e.parallel_for_slabs(128, doubled(np.ones(128, dtype=np.float64)))
        seg = e.plant_stats["out"]["segment"]
        e.close()
        e.close()  # second close is a no-op, not an error
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=seg)  # segment unlinked
        # reusable: plants and pool re-materialise lazily
        out = np.ones(128, dtype=np.float64)
        e.parallel_for_slabs(128, doubled(out))
        np.testing.assert_array_equal(out, np.full(128, 2.0))
        e.close()

    def test_context_manager_closes(self):
        with SharedMemoryEngine(threads=2) as e:
            e.plant("out", np.zeros(8))
            seg = e.plant_stats["out"]["segment"]
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=seg)

    def test_generic_path_graceful_close_and_reuse(self):
        e = SharedMemoryEngine(threads=2, min_items_per_process=1)
        assert e.parallel_for(list(range(8)), square) == [
            i * i for i in range(8)
        ]
        e.close()
        e.close()
        # close() drained and joined; engine lazily rebuilds its pool
        assert e.parallel_for([3], square) == [9]
        e.close()


class TestUnpickleFallback:
    """A worker-side unpickle failure must degrade to the serial
    fallback instead of poisoning the pool."""

    @pytest.mark.parametrize("engine_cls", [SharedMemoryEngine])
    def test_worker_unpickle_failure_falls_back(self, engine_cls):
        e = engine_cls(threads=2, min_items_per_process=1)
        try:
            fn = MainOnlyFn()  # pickles fine, refuses to unpickle
            with pytest.warns(RuntimeWarning, match="spawn round-trip"):
                out = e.parallel_for(list(range(10)), fn)
            assert out == [x + 1 for x in range(10)]
            # the pool survived: a well-behaved task still round-trips
            assert e.parallel_for(list(range(6)), square) == [
                i * i for i in range(6)
            ]
        finally:
            e.close()


class TestWorkAccountingParity:
    """Every backend accumulates the same work units for the same
    superstep (a process backend once dropped ``work_fn``)."""

    def _engines(self):
        return [
            SerialEngine(),
            SharedMemoryEngine(threads=2, min_items_per_process=1),
            SimulatedEngine(threads=2),
        ]

    def test_with_work_fn(self):
        items = list(range(16))
        expected = float(sum(i + 2 for i in items))
        for e in self._engines():
            try:
                e.parallel_for(items, square,
                               work_fn=lambda i, r: i + 2)
                assert e.work_units == expected, e.name
            finally:
                getattr(e, "close", lambda: None)()

    def test_default_one_unit_per_task(self):
        items = list(range(11))
        for e in self._engines():
            try:
                e.parallel_for(items, square)
                assert e.work_units == float(len(items)), e.name
            finally:
                getattr(e, "close", lambda: None)()

    def test_fallback_path_still_accounts(self):
        e = SharedMemoryEngine(threads=2, min_items_per_process=1)
        try:
            captured = []

            def closure(x):
                # unpicklable on purpose: exercises the fallback path
                captured.append(x)  # repro: noqa(R001)
                return x

            with pytest.warns(RuntimeWarning):
                e.parallel_for(list(range(5)), closure,  # repro: noqa(R007)
                               work_fn=lambda i, r: 3.0)
            assert e.work_units == 15.0
        finally:
            e.close()


class TestTracedSpans:
    """Acceptance: traced spans on both shm dispatch paths report
    non-empty work distributions."""

    def test_generic_path_spans_have_work_stats(self):
        tracer = Tracer(recording=True)
        with use_tracer(tracer):
            e = TracedEngine(SharedMemoryEngine(threads=2,
                                                min_items_per_process=1))
            e.parallel_for(list(range(12)), square,
                           work_fn=lambda i, r: float(i + 1))
            e.close()
        spans = [s for s in tracer.drain() if s.name == "superstep"]
        assert spans
        sp = spans[0]
        assert sp.attrs["work_total"] == float(sum(range(1, 13)))
        assert sp.attrs["work_max"] == 12.0
        assert sp.attrs["work_p50"] > 0

    def test_shm_slab_spans_have_work_stats(self):
        tracer = Tracer(recording=True)
        with use_tracer(tracer):
            e = TracedEngine(SharedMemoryEngine(threads=2,
                                                min_dispatch_items=1))
            e.parallel_for_slabs(
                4096, doubled(np.ones(4096, dtype=np.float64)),
                work_fn=lambda span, r: float(span[1] - span[0]),
            )
            e.close()
        spans = [s for s in tracer.drain() if s.name == "superstep"]
        assert spans
        sp = spans[0]
        assert sp.attrs["op"] == "parallel_for_slabs"
        assert sp.attrs["work_total"] == 4096.0
        assert sp.attrs["work_p50"] > 0
        assert sp.attrs["dispatch_bytes"] > 0  # dispatched, not inline
        assert sp.attrs["path"] == "dispatched"
        assert sp.attrs["slabs"] >= 2


class TestWorkerSpanCollection:
    """Cross-process collection: worker spans ride the tagged reply and
    merge — clock-aligned, re-parented — under the dispatching
    superstep span; without a recording tracer the protocol is
    byte-identical to the pre-collection one."""

    def test_worker_slab_spans_merge_under_superstep(self):
        tracer = Tracer(recording=True)
        with use_tracer(tracer):
            e = TracedEngine(SharedMemoryEngine(threads=2,
                                                min_dispatch_items=1))
            e.parallel_for_slabs(4096,
                                 doubled(np.ones(4096, dtype=np.float64)))
            assert e.inner.last_obs_bytes > 0
            e.close()
        spans = tracer.drain()
        supersteps = [s for s in spans if s.name == "superstep"]
        workers = [s for s in spans if s.name == "worker.slab"]
        assert len(supersteps) == 1 and len(workers) >= 2
        anchor = supersteps[0]
        for w in workers:
            assert w.parent_id == anchor.span_id
            # clock-aligned: merged spans sit inside the superstep
            assert anchor.start <= w.start <= w.end <= anchor.end
            assert w.attrs["kernel"] == DOUBLE
            assert int(w.attrs["worker"]) == w.thread != os.getpid()
            assert "clock_offset" in w.attrs

    def test_merged_trace_passes_chrome_validation(self, tmp_path):
        from repro.obs import export_chrome_trace, validate_chrome_trace

        tracer = Tracer(recording=True)
        with use_tracer(tracer):
            e = TracedEngine(SharedMemoryEngine(threads=2,
                                                min_dispatch_items=1))
            e.parallel_for_slabs(4096,
                                 doubled(np.ones(4096, dtype=np.float64)))
            e.close()
        path = tmp_path / "trace.json"
        export_chrome_trace(tracer.drain(), path)
        assert validate_chrome_trace(path) == []

    def test_no_collection_without_recording_tracer(self, eng):
        eng.parallel_for_slabs(4096, doubled(np.ones(4096, dtype=np.float64)))
        assert eng.dispatched_supersteps == 1
        # passive default tracer: no header shipped, no report returned
        assert eng.last_obs_bytes == 0

    def test_reply_tag_byte_identical_without_header(self):
        """The generic chunk protocol only grows when a header rides
        along — ``REPRO_OBS=off`` replies keep the legacy ``b"R"``."""
        import pickle

        from repro.parallel.backends.shm import (
            _TAG_RESULTS,
            _TAG_RESULTS_OBS,
            _chunk_runner,
        )
        legacy = _chunk_runner(pickle.dumps((square, [1, 2, 3])))
        assert legacy.startswith(_TAG_RESULTS)
        assert pickle.loads(legacy[1:]) == [1, 4, 9]
        obs = _chunk_runner(pickle.dumps(
            (square, [1, 2, 3], {"t_send": 0.0})
        ))
        assert obs.startswith(_TAG_RESULTS_OBS)
        results, report = pickle.loads(obs[1:])
        assert results == [1, 4, 9]
        assert [r["name"] for r in report.spans] == ["worker.chunk"]

    def test_recovery_stamped_on_inline_rerun(self):
        tracer = Tracer(recording=True)
        with use_tracer(tracer):
            e = TracedEngine(SharedMemoryEngine(threads=2,
                                                min_dispatch_items=1))
            task = SlabTask(ref=CRASH,
                            arrays={"out": np.zeros(4096, dtype=np.int64)},
                            params={"master_pid": os.getpid()})
            with pytest.warns(RuntimeWarning, match="died mid-superstep"):
                results = e.parallel_for_slabs(4096, task)
            assert sum(results) == 4096
            e.close()
        sp = [s for s in tracer.drain() if s.name == "superstep"][0]
        assert sp.attrs.get("recovery") is True

    def test_healthy_superstep_has_no_recovery_attr(self):
        tracer = Tracer(recording=True)
        with use_tracer(tracer):
            e = TracedEngine(SharedMemoryEngine(threads=2,
                                                min_dispatch_items=1))
            e.parallel_for_slabs(64, doubled(np.ones(64, dtype=np.float64)))
            e.close()
        sp = [s for s in tracer.drain() if s.name == "superstep"][0]
        assert "recovery" not in sp.attrs


class TestWorkerAttachCache:
    """Worker-side attach cache: a hit refreshes LRU order (plain FIFO
    used to evict the long-lived CSR base segments first — the hottest
    entries of all), and segments pinned by the chunk currently
    materialising its catalog are never evicted (numpy views do not
    keep the buffer exported, so closing one would silently dangle the
    view rather than fail loudly)."""

    @pytest.fixture()
    def cache(self, monkeypatch):
        from repro.parallel.backends import shm as shm_mod

        monkeypatch.setattr(shm_mod, "_SEGMENTS", {})
        monkeypatch.setattr(shm_mod, "_PINNED", set())
        owners = []
        yield shm_mod, owners
        for seg in shm_mod._SEGMENTS.values():
            try:
                seg.close()
            except BufferError:
                pass
        for seg in owners:
            seg.close()
            seg.unlink()

    def _create(self, owners, count):
        for _ in range(count):
            owners.append(shared_memory.SharedMemory(create=True, size=64))
        return [s.name for s in owners[-count:]]

    def test_hit_refreshes_lru_and_eviction_picks_cold_entry(
        self, cache, monkeypatch
    ):
        shm_mod, owners = cache
        monkeypatch.setattr(shm_mod, "_MAX_WORKER_SEGMENTS", 3)
        names = self._create(owners, 4)
        for name in names[:3]:
            shm_mod._attach_segment(name)
        # a cache hit marks the oldest segment most-recently-used (the
        # CSR-base access pattern: touched by every superstep)...
        shm_mod._attach_segment(names[0])
        # ...so a 4th attach evicts the coldest entry — names[1], not
        # the insertion-order-oldest names[0]
        shm_mod._attach_segment(names[3])
        assert names[0] in shm_mod._SEGMENTS
        assert names[1] not in shm_mod._SEGMENTS

    def test_pinned_segments_survive_eviction(self, cache, monkeypatch):
        shm_mod, owners = cache
        monkeypatch.setattr(shm_mod, "_MAX_WORKER_SEGMENTS", 2)
        names = self._create(owners, 4)
        views = [
            np.ndarray(8, dtype=np.int8,
                       buffer=shm_mod._attach_segment(n).buf)
            for n in names[:2]
        ]
        # both cached segments belong to the in-flight catalog: the
        # third attach must defer eviction (grow past the bound), never
        # close a segment those views are mapped over
        shm_mod._PINNED.update(names[:2])
        shm_mod._attach_segment(names[2])
        assert set(names[:3]) <= set(shm_mod._SEGMENTS)
        assert views[0][0] == 0 and views[1][0] == 0  # still backed
        del views
        # once the chunk finishes (pins cleared), eviction resumes
        shm_mod._PINNED.clear()
        shm_mod._attach_segment(names[3])
        assert len(shm_mod._SEGMENTS) <= 2
        assert names[3] in shm_mod._SEGMENTS


class TestKernelMirrorBack:
    """A relaxation superstep must leave the caller's arrays as the
    engine left them when slab dispatch raises mid-Step-1: the task
    binds those arrays, so there is nothing to mirror back and nothing
    to undo."""

    def test_step1_superstep_mirrors_on_dispatch_error(self):
        from repro.core import SOSPTree, sosp_update
        from repro.dynamic import ChangeBatch
        from repro.graph import DiGraph
        from repro.graph.csr import CSRGraph

        seen = []

        class ExplodingEngine(SharedMemoryEngine):
            def parallel_for_slabs(self, n_items, task,
                                   work_fn=None, min_chunk=1):
                seen.append(task.arrays["sosp.frontier"].tolist())
                # mutate like a half-finished superstep, then die
                task.arrays["sosp.dist"][1] = 0.5
                task.arrays["sosp.parent"][1] = 0
                raise EngineError("worker army vanished")

        e = ExplodingEngine(threads=2, min_dispatch_items=1)
        try:
            g = DiGraph(4)
            tree = SOSPTree.build(g, 0)
            csr = CSRGraph.from_digraph(g)
            batch = ChangeBatch.insertions([(0, 1, 0.5)])
            csr.apply_batch(batch)
            with pytest.raises(EngineError, match="vanished"):
                sosp_update(csr, tree, batch, engine=e)
            assert seen == [[1]]  # Step 1's frontier: the inserted head
            # the partial (monotone-valid) relaxation survived the error
            assert tree.dist[1] == 0.5
            assert tree.parent[1] == 0
        finally:
            e.close()


class TestResolveAndWrappers:
    def test_resolve_by_name(self):
        e = resolve_engine("shm", threads=3, checked=False)
        try:
            assert e.name == "shm"
            assert e.threads == 3
            assert e.supports_slab_dispatch
        finally:
            e.close()

    def test_checked_wrapper_forwards_slab_surface(self):
        e = resolve_engine("shm", threads=2, checked=True)
        try:
            assert e.name == "checked(shm)"
            assert getattr(e, "supports_slab_dispatch", False)
            e.parallel_for_slabs(256,
                                 doubled(np.ones(256, dtype=np.float64)))
            assert e.tracker.supersteps >= 1
        finally:
            e.close()

    def test_close_is_safe_through_wrappers_on_any_backend(self):
        for name in ("serial", "shm", "simulated"):
            e = resolve_engine(name, threads=2, checked=True)
            e.close()  # must never raise, even when inner has no pool


class TestTwoEngineLifecycle:
    """Satellite bug: two live engines must never unlink each other.

    Teardown is strictly per-instance and per-process: ``close()``
    releases only this engine's own segments, tolerates names that were
    already unlinked externally, and a forked child dropping its
    inherited engine copy must leave the parent's live segments (and
    pool workers) alone."""

    def test_two_engines_close_independently(self):
        a = SharedMemoryEngine(threads=2, min_dispatch_items=1)
        b = SharedMemoryEngine(threads=2, min_dispatch_items=1)
        try:
            a.plant("out", np.ones(8, dtype=np.float64))
            out_b = np.full(8, 2.0)
            b.plant("out", out_b)
            seg_b = b.plant_stats["out"]["segment"]
            a.close()
            # b's identically-named plant lives in its own segment and
            # must survive a's teardown intact...
            probe = shared_memory.SharedMemory(name=seg_b)
            probe.close()
            # ...and b must still dispatch real work through it afterwards
            b.parallel_for_slabs(8, doubled(out_b))
            assert b.plant_stats["out"]["segment"] == seg_b
            np.testing.assert_array_equal(out_b, np.full(8, 4.0))
        finally:
            b.close()
            a.close()  # second close of a dead engine: no-op

    def test_release_tolerates_external_unlink(self):
        e = SharedMemoryEngine(threads=2)
        e.plant("out", np.ones(8, dtype=np.float64))
        seg_name = e.plant_stats["out"]["segment"]
        ext = shared_memory.SharedMemory(name=seg_name)
        ext.unlink()  # e.g. the old double-unlink bug, or a janitor
        ext.close()
        e.close()  # must swallow FileNotFoundError, not raise

    def test_forked_child_close_leaves_parent_segments(self):
        if not hasattr(os, "fork"):
            pytest.skip("fork-only scenario")
        e = SharedMemoryEngine(threads=2)
        view = e.plant("out", np.arange(8, dtype=np.float64))
        seg_name = e.plant_stats["out"]["segment"]
        pid = os.fork()
        if pid == 0:
            # child: the inherited engine (and its atexit finalizer)
            # must close without unlinking the parent's segments
            code = 0
            try:
                e.close()
            except BaseException:
                code = 1
            os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        try:
            probe = shared_memory.SharedMemory(name=seg_name)
            probe.close()
            np.testing.assert_array_equal(
                view, np.arange(8, dtype=np.float64)
            )
        finally:
            e.close()


class TestPublishSnapshot:
    """MVCC epoch export: stamp-keyed, frozen, zero-copy on repeats."""

    def test_same_stamp_returns_cached_frozen_object(self, eng):
        dist = np.arange(4, dtype=np.float64)
        s1 = eng.publish_snapshot({"dist": dist}, ("s", 1))
        s2 = eng.publish_snapshot({"dist": dist}, ("s", 1))
        assert s1 is s2  # repeat export between batches is zero-copy
        assert eng.snapshot_copies == 1
        assert eng.snapshot_exports == 2
        assert not s1["dist"].flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            s1["dist"][0] = 99.0

    def test_new_stamp_recopies_and_decouples(self, eng):
        dist = np.arange(4, dtype=np.float64)
        s1 = eng.publish_snapshot({"dist": dist}, ("s", 1))
        dist[0] = 99.0  # a later in-place update...
        assert s1["dist"][0] == 0.0  # ...never reaches the old epoch
        s2 = eng.publish_snapshot({"dist": dist}, ("s", 2))
        assert s2 is not s1
        assert s2["dist"][0] == 99.0
        assert eng.snapshot_copies == 2

    def test_close_clears_snapshot_cache(self):
        e = SharedMemoryEngine(threads=2)
        s1 = e.publish_snapshot({"d": np.ones(2)}, ("s", 1))
        e.close()
        s2 = e.publish_snapshot({"d": np.ones(2)}, ("s", 1))
        assert s2 is not s1  # a closed engine never serves stale arrays
        e.close()

    def test_wrappers_forward_publish_snapshot(self):
        e = resolve_engine("shm", threads=2, checked=True)
        try:
            snap = e.publish_snapshot({"d": np.ones(2)}, ("s", 1))
            assert not snap["d"].flags.writeable
        finally:
            e.close()


# ----------------------------------------------------------------------
# SharedMemoryEngine.parallel_for: needs module-level (picklable) task
# functions
# ----------------------------------------------------------------------

class TestSharedMemoryParallelFor:
    def test_small_input_runs_inline(self):
        eng = SharedMemoryEngine(threads=2, min_items_per_process=100)
        assert eng.parallel_for([1, 2, 3], square) == [1, 4, 9]
        assert eng._pool is None  # below the threshold: no spawn
        eng.close()

    def test_picklable_function_across_processes(self):
        with SharedMemoryEngine(threads=2, min_items_per_process=1) as eng:
            out = eng.parallel_for(list(range(40)), square)
            assert eng._pool is not None
        assert out == [i * i for i in range(40)]

    def test_unpicklable_falls_back_with_warning(self):
        captured = []

        def closure(x):
            # intentionally unpicklable shared state: proves the shm
            # engine's serial fallback still runs the closure
            captured.append(x)  # repro: noqa(R001)
            return x + 1

        eng = SharedMemoryEngine(threads=2, min_items_per_process=1)
        with pytest.warns(RuntimeWarning):
            out = eng.parallel_for(list(range(10)), closure)  # repro: noqa(R007)
        assert out == list(range(1, 11))
        eng.close()

    def test_chunk_runner_roundtrip(self):
        import pickle

        from repro.parallel.backends.shm import _chunk_runner
        blob = pickle.dumps((square, [2, 3]))
        reply = _chunk_runner(blob)
        assert reply[:1] == b"R"  # tagged: results follow
        assert pickle.loads(reply[1:]) == [4, 9]

    def test_chunk_runner_reports_undecodable_payload(self):
        import pickle

        from repro.parallel.backends.shm import _chunk_runner
        reply = _chunk_runner(b"\x80\x05 not a pickle")
        assert reply[:1] == b"U"  # tagged: unpicklable, master falls back
        assert isinstance(pickle.loads(reply[1:]), str)
