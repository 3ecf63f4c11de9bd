"""Tests for :mod:`repro.service`: group commit, MVCC epochs, lifecycle,
ingress validation.

Includes the satellite property test: a reader holding epoch ``e``
observes bitwise-identical ``dist``/``parent`` arrays while at least
three further batches land concurrently on the writer thread.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SOSPTree
from repro.dynamic import (
    KIND_DELETE,
    KIND_INSERT,
    ChangeBatch,
    ChangeStream,
    EdgeEdit,
    stream_edits,
)
from repro.errors import BatchError, ReproError
from repro.graph import CSRGraph, erdos_renyi, grid_road
from repro.obs.metrics import use_metrics
from repro.parallel import SharedMemoryEngine
from repro.service import (
    Coalescer,
    EpochSnapshot,
    ServiceState,
    UpdateService,
    run_load,
)
from repro.sssp import dijkstra

INS = KIND_INSERT


def _edit(i: int) -> EdgeEdit:
    return EdgeEdit(INS, i, i + 1, (1.0,))


class TestCoalescer:
    def test_size_trigger_cuts_a_full_flush(self):
        c = Coalescer(flush_size=4)
        for i in range(9):
            assert c.offer(_edit(i))
        # nine pending: flush_size caps the group
        got = c.take(timeout=2.0)
        assert [e.u for e in got] == [0, 1, 2, 3]
        assert c.depth == 5

    def test_group_commit_takes_a_lone_edit_at_once(self):
        c = Coalescer(flush_size=1000)
        offered = perf_counter()
        c.offer(_edit(7))
        t0 = perf_counter()
        got = c.take(timeout=5.0)  # far below flush_size: no wait
        assert perf_counter() - t0 < 1.0
        assert [e.u for e in got] == [7]
        assert c.depth == 0
        assert offered <= c.taken_since <= t0  # the edit's arrival stamp

    def test_group_commit_drains_a_backlog_in_fifo_groups(self):
        c = Coalescer(flush_size=4)
        for i in range(10):  # 2.5 x flush_size
            assert c.offer(_edit(i))
        groups = [[e.u for e in c.take(timeout=1.0)] for _ in range(3)]
        assert groups == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert c.depth == 0

    def test_take_times_out_empty(self):
        c = Coalescer(flush_size=4)
        assert c.take(timeout=0.05) == []

    def test_back_pressure_rejects_on_timeout(self):
        c = Coalescer(flush_size=2, max_pending=2)
        assert c.offer(_edit(0)) and c.offer(_edit(1))
        # full, and nobody is taking: the producer must get the signal
        assert c.offer(_edit(2), timeout=0.05) is False
        assert c.rejected_total == 1
        assert c.offered_total == 2
        c.take(timeout=1.0)  # frees capacity
        assert c.offer(_edit(2), timeout=0.05) is True

    def test_close_drains_then_signals_exhaustion(self):
        c = Coalescer(flush_size=100)
        c.offer(_edit(0))
        c.close()
        with pytest.raises(ReproError):
            c.offer(_edit(1))
        assert [e.u for e in c.take(timeout=1.0)] == [0]
        assert c.take(timeout=0.05) == []  # closed + dry: writer exits
        assert c.closed

    def test_rejects_bad_policy(self):
        with pytest.raises(ReproError):
            Coalescer(flush_size=0)
        with pytest.raises(ReproError):
            Coalescer(flush_size=10, max_pending=5)


class TestEpochSnapshot:
    def test_freezes_and_decouples_writable_inputs(self):
        dist = np.array([0.0, 1.0, 3.0])
        parent = np.array([-1, 0, 1])
        snap = EpochSnapshot(0, 0, dist, parent)
        dist[2] = 99.0  # later writer mutation
        assert snap.distance(2) == 3.0
        assert not snap.dist.flags.writeable
        assert snap.verify()

    def test_adopts_pre_frozen_arrays_without_copying(self):
        dist = np.array([0.0, 1.0])
        dist.setflags(write=False)
        parent = np.array([-1, 0])
        parent.setflags(write=False)
        snap = EpochSnapshot(3, 0, dist, parent)
        assert snap.dist is dist  # the shm publish path: no second copy
        assert snap.parent is parent

    def test_path_walks_the_parent_chain(self):
        snap = EpochSnapshot(
            0, 0, np.array([0.0, 1.0, 3.0]), np.array([-1, 0, 1])
        )
        assert snap.path_to(2) == [0, 1, 2]
        assert snap.path_to(0) == [0]

    def test_unreachable_and_broken_chains_raise(self):
        snap = EpochSnapshot(
            0, 0, np.array([0.0, np.inf, 1.0]), np.array([-1, -1, -1])
        )
        with pytest.raises(ReproError, match="unreachable"):
            snap.path_to(1)
        with pytest.raises(ReproError, match="broken"):
            snap.path_to(2)  # finite dist but no chain back to source

    def test_cycle_guard_terminates(self):
        snap = EpochSnapshot(
            0, 0, np.array([0.0, 1.0, 1.0]), np.array([-1, 2, 1])
        )
        with pytest.raises(ReproError, match="broken"):
            snap.path_to(1)

    def test_verify_detects_payload_tampering(self):
        dist = np.array([0.0, 1.0])
        snap = EpochSnapshot(0, 0, dist, np.array([-1, 0]))
        forged = np.array(snap.dist, copy=True)
        forged[1] = 2.0
        forged.setflags(write=False)
        snap.dist = forged  # simulate a torn/overwritten payload
        assert not snap.verify()


def _drive_edits(service, *, steps=3, batch_size=8, seed=1,
                 insert_fraction=0.7, weight_change_fraction=0.15):
    """Submit ``steps * batch_size`` seeded edits from a replica."""
    replica = service.graph.to_digraph()
    stream = ChangeStream(
        replica, batch_size=batch_size, steps=steps,
        insert_fraction=insert_fraction,
        weight_change_fraction=weight_change_fraction, seed=seed,
    )
    n = 0
    for edit in stream_edits(stream):
        assert service.submit(edit, timeout=10.0)
        n += 1
    return n


class TestServiceLifecycle:
    def test_states_through_a_clean_run(self):
        svc = UpdateService(grid_road(4, 4, seed=0), 0, flush_size=8)
        assert svc.state == ServiceState.NEW
        assert svc.snapshot().epoch == 0  # epoch 0 serves before start
        svc.start()
        assert svc.state == ServiceState.RUNNING
        n = _drive_edits(svc, steps=2, batch_size=8)
        assert svc.drain(timeout=30.0)
        assert svc.edits_applied == n
        assert svc.stop(drain=True, timeout=30.0)
        assert svc.state == ServiceState.STOPPED
        assert svc.snapshot().epoch == svc.epochs_published >= 1

    def test_services_are_single_use(self):
        svc = UpdateService(grid_road(3, 3, seed=0), 0)
        svc.start()
        svc.stop()
        with pytest.raises(ReproError, match="single-use"):
            svc.start()
        with pytest.raises(ReproError, match="submit"):
            svc.submit(_edit(0))

    def test_submit_requires_running(self):
        svc = UpdateService(grid_road(3, 3, seed=0), 0)
        with pytest.raises(ReproError):
            svc.submit(_edit(0))
        assert svc.stop()  # NEW -> STOPPED without ever starting

    def test_stop_is_idempotent(self):
        svc = UpdateService(grid_road(3, 3, seed=0), 0).start()
        assert svc.stop()
        assert svc.stop()

    def test_context_manager_starts_and_drains(self):
        with UpdateService(grid_road(4, 4, seed=0), 0, flush_size=4) as svc:
            assert svc.state == ServiceState.RUNNING
            _drive_edits(svc, steps=1, batch_size=4)
            assert svc.drain(timeout=30.0)
        assert svc.state == ServiceState.STOPPED
        assert svc.epochs_published >= 1

    def test_caller_owned_engine_is_not_closed(self):
        eng = SharedMemoryEngine(threads=2)
        try:
            svc = UpdateService(grid_road(3, 3, seed=0), 0, engine=eng)
            svc.start()
            svc.stop()
            # still usable: the service never owned it
            snap = eng.publish_snapshot({"d": np.ones(2)}, ("s", 1))
            assert not snap["d"].flags.writeable
        finally:
            eng.close()


class TestServiceCorrectness:
    @pytest.mark.parametrize("insert_fraction,weight_change_fraction", [
        (1.0, 0.0),    # insert-only groups
        (0.6, 0.2),    # mixed groups: Step D invalidates
    ])
    def test_final_epoch_matches_recompute(self, insert_fraction,
                                           weight_change_fraction):
        g = erdos_renyi(60, 240, seed=3)
        svc = UpdateService(g, 0, flush_size=10)
        svc.start()
        try:
            _drive_edits(
                svc, steps=4, batch_size=10, seed=5,
                insert_fraction=insert_fraction,
                weight_change_fraction=weight_change_fraction,
            )
            assert svc.drain(timeout=60.0)
            assert svc.error is None
        finally:
            assert svc.stop(drain=True, timeout=60.0)
        snap = svc.snapshot()
        fresh = SOSPTree.build(svc.graph, 0)
        np.testing.assert_array_equal(snap.dist, fresh.dist)
        assert snap.verify()


_POISON = [  # (reason, edit) — one of each kind submit() must refuse
    ("kind", EdgeEdit(7, 0, 1, (1.0,))),
    ("vertex", EdgeEdit(INS, 0, 16, (1.0,))),
    ("vertex", EdgeEdit(KIND_DELETE, -1, 1)),
    ("arity", EdgeEdit(INS, 0, 1, None)),
    ("arity", EdgeEdit(INS, 0, 1, (1.0, 2.0))),
    ("weight", EdgeEdit(INS, 0, 1, (float("nan"),))),
    ("weight", EdgeEdit(INS, 0, 1, (float("inf"),))),
    ("weight", EdgeEdit(INS, 0, 1, (-1.0,))),
]


class TestIngress:
    def test_poison_edits_are_rejected_at_submit(self):
        g = grid_road(4, 4, seed=0)  # n = 16, k = 1
        replica = g.copy()
        valid = stream_edits(ChangeStream(
            replica, batch_size=len(_POISON) + 1, steps=1,
            insert_fraction=0.6, weight_change_fraction=0.2, seed=4,
        ))
        with use_metrics() as reg:
            svc = UpdateService(g, 0, flush_size=4).start()
            try:
                assert svc.submit(next(valid), timeout=10.0)
                for reason, bad in _POISON:
                    with pytest.raises(BatchError, match="rejected"):
                        svc.submit(bad)
                    assert svc.submit(next(valid), timeout=10.0)
                assert svc.drain(timeout=30.0)
                assert svc.state == ServiceState.RUNNING
                assert svc.error is None
            finally:
                assert svc.stop(drain=True, timeout=30.0)
            counts = reg.snapshot()
        for reason in ("kind", "vertex", "arity", "weight"):
            want = sum(r == reason for r, _ in _POISON)
            key = f'service_rejected_edits_total{{reason="{reason}"}}'
            assert counts[key] == want
        assert svc.edits_applied == len(_POISON) + 1
        dist, _ = dijkstra(svc.graph, 0)
        np.testing.assert_array_equal(svc.snapshot().dist, dist)

    def test_freshness_is_observed_once_per_epoch(self):
        with use_metrics() as reg:
            with UpdateService(grid_road(4, 4, seed=0), 0,
                               flush_size=4) as svc:
                _drive_edits(svc, steps=2, batch_size=4)
                assert svc.drain(timeout=30.0)
            fresh = reg.snapshot()["service_freshness_seconds"]
        assert fresh["count"] == svc.epochs_published >= 1
        assert 0.0 <= fresh["min"] <= fresh["max"] < 30.0

    def test_flush_latency_keyword_is_accepted_and_ignored(self):
        svc = UpdateService(grid_road(3, 3, seed=0), 0, flush_size=4,
                            flush_latency=0.05)
        assert not hasattr(svc.coalescer, "flush_latency")
        assert svc.stop()


class TestOneGraph:
    def test_the_service_holds_and_mutates_one_csr(self, monkeypatch):
        """The CSR is the service's only graph: it is ``svc.graph``,
        there is no CSR mirror beside it, and no epoch applies a batch
        to a DiGraph."""
        g = erdos_renyi(60, 240, seed=3)
        csr = CSRGraph.from_digraph(g)
        taken = UpdateService(csr, 0)
        assert taken.graph is csr
        assert taken.stop()

        svc = UpdateService(g, 0, flush_size=10)
        assert isinstance(svc.graph, CSRGraph)
        assert not hasattr(svc, "csr")
        # the edits come from a DiGraph replica, made before the patch
        edits = list(stream_edits(ChangeStream(
            svc.graph.to_digraph(), batch_size=10, steps=4, seed=5,
            insert_fraction=0.5, weight_change_fraction=0.25,
        )))

        def refuse(self, graph):
            raise AssertionError("the service applied a batch to a DiGraph")

        monkeypatch.setattr(ChangeBatch, "apply_to", refuse)
        svc.start()
        try:
            for edit in edits:
                assert svc.submit(edit, timeout=10.0)
            assert svc.drain(timeout=60.0)
            assert svc.error is None
        finally:
            assert svc.stop(drain=True, timeout=60.0)
        assert svc.edits_applied == 40
        dist, _ = dijkstra(svc.graph, 0)
        np.testing.assert_array_equal(svc.snapshot().dist, dist)


class TestDegradedMode:
    def test_failed_writer_keeps_serving_the_last_epoch(self):
        svc = UpdateService(grid_road(4, 4, seed=0), 0, flush_size=2)

        def boom(edits):
            raise RuntimeError("apply exploded")

        svc._apply = boom  # type: ignore[method-assign]
        svc.start()
        before = svc.snapshot()
        svc.submit(_edit(0))
        svc.submit(_edit(1))
        deadline = 50
        while svc.state != ServiceState.FAILED and deadline:
            deadline -= 1
            svc._thread.join(timeout=0.1) if svc._thread else None
        assert svc.state == ServiceState.FAILED
        assert isinstance(svc.error, RuntimeError)
        # degraded, not gone: the last good epoch still serves reads
        snap = svc.snapshot()
        assert snap is before and snap.verify()
        # producers get an error instead of silent loss
        with pytest.raises(ReproError):
            svc.submit(_edit(2))
        assert svc.drain(timeout=1.0) is False
        assert svc.stop() is False  # an unclean stop says so
        assert svc.state == ServiceState.FAILED


class TestLoadGenerator:
    def test_serial_smoke_run_is_clean(self):
        svc = UpdateService(erdos_renyi(80, 320, seed=2), 0,
                            flush_size=10)
        svc.start()
        try:
            report = run_load(svc, edits=40, queries=60, readers=1,
                              batch_size=10, seed=2)
        finally:
            svc.stop()
        assert report.clean
        assert report.edits_applied == 40
        assert report.queries >= 60
        assert report.epochs >= 4
        assert report.torn_reads == 0

    def test_run_load_requires_a_running_service(self):
        svc = UpdateService(grid_road(3, 3, seed=0), 0)
        with pytest.raises(ReproError, match="running"):
            run_load(svc, edits=1, queries=1)
        svc.stop()


class TestSnapshotIsolation:
    """Satellite property: pinned epochs are bitwise-immutable.

    A reader pins the pre-ingest epoch, then >= 3 further batches are
    applied and published by the writer thread; the pinned arrays must
    be byte-for-byte what they were at publication, still frozen, and
    the digest must re-verify."""

    def _pin_and_update(self, engine, seed, *, steps=3, batch_size=8):
        g = grid_road(5, 5, seed=seed % 97)
        svc = UpdateService(g, 0, engine=engine, threads=2,
                            flush_size=batch_size)
        svc.start()
        try:
            pinned = svc.snapshot()
            dist_bytes = pinned.dist.tobytes()
            parent_bytes = pinned.parent.tobytes()
            _drive_edits(svc, steps=steps, batch_size=batch_size,
                         seed=seed)
            assert svc.drain(timeout=60.0)
            assert svc.error is None
            # flush_size caps every take(): >= `steps` batches landed
            assert svc.epochs_published >= pinned.epoch + steps
            assert svc.snapshot() is not pinned
            # the pinned epoch: bitwise-identical, frozen, digest intact
            assert pinned.dist.tobytes() == dist_bytes
            assert pinned.parent.tobytes() == parent_bytes
            assert not pinned.dist.flags.writeable
            assert not pinned.parent.flags.writeable
            assert pinned.verify()
        finally:
            svc.stop(drain=True, timeout=60.0)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_pinned_epoch_survives_concurrent_batches_shm(self, seed):
        # default dispatch policy: a 25-vertex graph's supersteps have
        # one slab and run inline, so each example exercises the full
        # shm publish path without paying a worker-pool spawn
        self._pin_and_update("shm", seed)

    def test_pinned_epoch_survives_real_dispatch(self):
        # one non-hypothesis pin through a *live worker pool*: every
        # update superstep crosses process boundaries before publishing
        eng = SharedMemoryEngine(threads=2, min_dispatch_items=1)
        try:
            self._pin_and_update(eng, seed=11, steps=3, batch_size=8)
        finally:
            eng.close()
