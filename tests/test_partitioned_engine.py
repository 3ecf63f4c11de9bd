"""Unit and property tests for the partitioned engine's exchange loop.

Covers the boundary-exchange protocol invariants the differential
matrix can't see from the outside: superstep counts on chains that span
shard cuts, early termination when nothing crosses a cut, improvements
that ping-pong between two shards, degenerate partitions (one shard,
shards with no affected vertices), plan maintenance across incremental
batches, and lifecycle teardown.  Plus the ``resolve_engine`` registry
satellite: the picklable :class:`~repro.errors.UnknownEngineError`.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.core import SOSPTree, apply_mixed_batch, sosp_update
from repro.dynamic import ChangeBatch
from repro.errors import EngineError, UnknownEngineError
from repro.graph import DiGraph
from repro.graph.analysis import (
    partition_by_ranges,
    partition_edgecut,
    refine_partition_greedy,
)
from repro.graph.csr import CSRGraph
from repro.graph.shards import build_shards
from repro.parallel import PartitionedEngine, resolve_engine
from tests._checked_env import unwrap_checked


def _chain_graph(n):
    g = DiGraph(n, k=1)
    return g


def _insert(edges):
    return ChangeBatch.insertions([(u, v, [w]) for u, v, w in edges])


def _run(engine, g, tree, batch):
    batch.apply_to(g)
    return apply_mixed_batch(g, tree, batch, engine=engine)


# ---------------------------------------------------------------- protocol
class TestExchangeProtocol:
    def test_chain_crossing_every_cut_needs_one_superstep_per_shard(self):
        """A path inserted along 0→1→…→n−1 under contiguous ranges
        crosses every cut once: P supersteps, P−1 boundary messages."""
        for parts in (2, 3, 4):
            n = 4 * parts
            g = _chain_graph(n)
            tree = SOSPTree.build(g, 0, 0)
            batch = _insert([(i, i + 1, 1.0) for i in range(n - 1)])
            engine = PartitionedEngine(
                threads=1, partitions=parts, inner="serial"
            )
            try:
                _run(engine, g, tree, batch)
            finally:
                engine.close()
            assert engine.last_exchange_stats["supersteps"] == parts
            assert engine.last_exchange_stats["messages"] == parts - 1
            assert engine.last_exchange_stats["deliveries"] == parts - 1
            np.testing.assert_array_equal(
                tree.dist, np.arange(n, dtype=float)
            )
            tree.certify(g)

    def test_update_local_to_one_shard_exchanges_nothing(self):
        """An improvement confined to one shard's interior terminates
        after a single superstep with an empty exchange."""
        g = _chain_graph(8)
        base = _insert([(0, 1, 1.0), (1, 2, 5.0), (2, 3, 1.0)])
        base.apply_to(g)
        tree = SOSPTree.build(g, 0, 0)
        engine = PartitionedEngine(threads=1, partitions=2, inner="serial")
        try:
            batch = _insert([(1, 2, 1.0)])  # shortcut inside shard 0
            _run(engine, g, tree, batch)
        finally:
            engine.close()
        assert engine.last_exchange_stats == {
            "supersteps": 1, "messages": 0, "deliveries": 0,
        }
        assert tree.dist[3] == 3.0
        tree.certify(g)

    def test_no_improvement_runs_zero_supersteps(self):
        """A batch that cannot improve anything never propagates."""
        g = _chain_graph(6)
        base = _insert([(0, 1, 1.0), (1, 2, 1.0)])
        base.apply_to(g)
        tree = SOSPTree.build(g, 0, 0)
        engine = PartitionedEngine(threads=1, partitions=2, inner="serial")
        try:
            batch = _insert([(0, 1, 9.0)])  # worse parallel edge
            _run(engine, g, tree, batch)
        finally:
            engine.close()
        assert engine.last_exchange_stats == {
            "supersteps": 0, "messages": 0, "deliveries": 0,
        }
        tree.certify(g)

    def test_improvement_ping_pongs_between_two_shards(self):
        """A shortest path weaving 0→3→1→4→2 across the cut of
        part=[0,0,0,1,1] re-activates each shard twice: the cut edge's
        improvement bounces back and forth ≥ 2 times."""
        g = _chain_graph(5)
        tree = SOSPTree.build(g, 0, 0)
        batch = _insert([
            (0, 3, 1.0), (3, 1, 1.0), (1, 4, 1.0), (4, 2, 1.0),
        ])
        engine = PartitionedEngine(
            threads=1, partitions=2, inner="serial",
            assignment=np.array([0, 0, 0, 1, 1]),
        )
        try:
            _run(engine, g, tree, batch)
        finally:
            engine.close()
        stats = engine.last_exchange_stats
        assert stats["supersteps"] == 4   # 0→3 | →1 | →4 | →2
        assert stats["messages"] == 3     # 3, 1, 4 each cross once
        np.testing.assert_array_equal(
            tree.dist, np.array([0.0, 2.0, 4.0, 1.0, 3.0])
        )
        tree.certify(g)

    def test_single_partition_degenerates_to_plain_engine(self):
        """partitions=1: one shard owns everything — identical dist AND
        parents to the plain serial kernel path, zero messages."""
        rng = np.random.default_rng(5)
        n = 20
        g = DiGraph(n, k=1)
        for _ in range(60):
            g.add_edge(int(rng.integers(0, n)), int(rng.integers(0, n)),
                       [float(rng.integers(1, 9))])
        tree = SOSPTree.build(g, 0, 0)
        ref = copy.deepcopy(tree)
        g2 = copy.deepcopy(g)
        batch = _insert([
            (int(rng.integers(0, n)), int(rng.integers(0, n)),
             float(rng.integers(1, 4)))
            for _ in range(6)
        ])
        batch.apply_to(g2)
        snap = CSRGraph.from_digraph(g)
        snap.append_batch(batch)
        sosp_update(g2, ref, batch)
        engine = PartitionedEngine(threads=1, partitions=1, inner="serial")
        try:
            batch.apply_to(g)
            sosp_update(g, tree, batch, engine=engine, csr=snap)
        finally:
            engine.close()
        np.testing.assert_array_equal(tree.dist, ref.dist)
        np.testing.assert_array_equal(tree.parent, ref.parent)
        assert engine.last_exchange_stats["messages"] == 0
        assert engine.last_exchange_stats["supersteps"] <= 1

    def test_shard_with_no_affected_vertices_stays_idle(self):
        """Shards the update never reaches are neither seeded nor
        activated (a chain far from the batch, in its own shard)."""
        g = _chain_graph(9)
        base = _insert([(6, 7, 1.0), (7, 8, 1.0)])  # island in shard 2
        base.apply_to(g)
        tree = SOSPTree.build(g, 0, 0)
        engine = PartitionedEngine(threads=1, partitions=3, inner="serial")
        try:
            batch = _insert([(0, 1, 1.0), (1, 2, 1.0)])  # shard 0 only
            _run(engine, g, tree, batch)
        finally:
            engine.close()
        assert engine.last_exchange_stats == {
            "supersteps": 1, "messages": 0, "deliveries": 0,
        }
        assert not np.isfinite(tree.dist[6:]).any()
        tree.certify(g)


# --------------------------------------------------------- plan maintenance
class TestPlanMaintenance:
    def test_incremental_batches_reuse_and_extend_the_plan(self):
        """Sequential batches against one snapshot go through the
        incremental shard-plan path (same plan object, updated stamp)
        and still match a from-scratch run."""
        rng = np.random.default_rng(9)
        n = 16
        g = DiGraph(n, k=1)
        for _ in range(40):
            g.add_edge(int(rng.integers(0, n)), int(rng.integers(0, n)),
                       [float(rng.integers(1, 9))])
        tree = SOSPTree.build(g, 0, 0)
        ref = copy.deepcopy(tree)
        g_ref = copy.deepcopy(g)
        snapshot = CSRGraph.from_digraph(g)
        engine = PartitionedEngine(threads=1, partitions=3, inner="serial")
        try:
            plan_ids = set()
            for step in range(4):
                batch = ChangeBatch(
                    rng.integers(0, n, 5),
                    rng.integers(0, n, 5),
                    rng.integers(1, 9, (5, 1)).astype(float),
                    rng.integers(0, 3, 5).astype(np.int8),
                )
                batch.apply_to(g)
                batch.apply_to(g_ref)
                snapshot.apply_batch(batch)
                apply_mixed_batch(g_ref, ref, batch)
                apply_mixed_batch(g, tree, batch, engine=engine,
                                  csr=snapshot)
                plan_ids.add(id(engine._plan))
                np.testing.assert_array_equal(tree.dist, ref.dist)
                tree.certify(g)
            # the plan survived at least one incremental sync (it may
            # rebuild when an insert lands an unseen ghost, not always)
            assert len(plan_ids) >= 1
            total = sum(
                sh.csr.num_edges for sh in engine._plan.shards
            )
            assert total == snapshot.num_edges
        finally:
            engine.close()

    def test_stale_snapshot_is_rejected(self):
        g = _chain_graph(4)
        batch = _insert([(0, 1, 1.0)])
        tree = SOSPTree.build(g, 0, 0)
        snap = CSRGraph.from_digraph(g)  # NOT updated with the batch
        batch.apply_to(g)
        engine = PartitionedEngine(threads=1, partitions=2, inner="serial")
        try:
            from repro.errors import AlgorithmError

            with pytest.raises(AlgorithmError, match="keep them in sync"):
                sosp_update(g, tree, batch, engine=engine,
                            csr=snap)
        finally:
            engine.close()


# ------------------------------------------------------------ partitioners
class TestPartitioners:
    def test_ranges_are_contiguous_and_balanced(self):
        part = partition_by_ranges(10, 3)
        assert part.shape == (10,)
        sizes = np.bincount(part, minlength=3)
        assert sizes.min() >= 3 and sizes.max() <= 4
        assert (np.diff(part) >= 0).all()  # contiguous

    def test_more_parts_than_vertices_leaves_empty_shards(self):
        part = partition_by_ranges(2, 4)
        assert part.shape == (2,)
        assert set(part.tolist()) <= {0, 1, 2, 3}
        # build_shards must still return one shard per partition
        g = DiGraph(2, k=1)
        g.add_edge(0, 1, [1.0])
        shards = build_shards(CSRGraph.from_digraph(g), part, parts=4)
        assert len(shards) == 4
        assert sum(sh.n_owned for sh in shards) == 2

    def test_greedy_refinement_never_raises_the_cut(self):
        rng = np.random.default_rng(2)
        n = 30
        g = DiGraph(n, k=1)
        perm = rng.permutation(n)  # destroy id locality
        for i in range(n - 1):
            g.add_edge(int(perm[i]), int(perm[i + 1]), [1.0])
        for _ in range(30):
            g.add_edge(int(rng.integers(0, n)), int(rng.integers(0, n)),
                       [1.0])
        part = partition_by_ranges(n, 3)
        refined = refine_partition_greedy(g, part)
        before = partition_edgecut(g, part)
        after = partition_edgecut(g, refined)
        assert after <= before
        sizes = np.bincount(refined, minlength=3)
        assert sizes.min() >= 1  # no shard starved


# ------------------------------------------------ crash recovery, lifecycle
class TestCrashAndLifecycle:
    def test_one_shard_worker_death_recovers_to_oracle(self, monkeypatch):
        """Kill one shard's shm worker mid-superstep (after it poisons
        its local dist slab): the pool's transactional rollback + inline
        re-run must keep the exchange loop on the oracle fixpoint.

        The crash kernel targets the pool by planted-dist length, so
        the shards are sized to differ: shard 0 owns {0..3} with no
        ghosts (length 4), shard 1 owns {4..7} plus ghosts {0, 3}
        (length 6).
        """
        from repro.core import kernels

        g = DiGraph(8, k=1)
        # shard 1's repair wave must fan out to >= 2 candidates (4 -> 5
        # AND 4 -> 6): single-span supersteps run inline on the master
        # and would never reach the worker pool, so nothing would crash
        base = _insert([
            (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0),
            (4, 5, 1.0), (4, 6, 1.0), (5, 7, 1.0), (6, 7, 2.0),
        ])
        base.apply_to(g)
        tree = SOSPTree.build(g, 0, 0)
        batch = _insert([(0, 4, 1.0)])  # shortcut: repairs live in shard 1

        g_ref = copy.deepcopy(g)
        ref = copy.deepcopy(tree)
        batch.apply_to(g_ref)
        apply_mixed_batch(g_ref, ref, batch)

        monkeypatch.setattr(
            kernels, "_PROPAGATE_SLAB_REF",
            "tests._shm_support:crash_one_shard_propagate_slab",
        )
        monkeypatch.setattr(kernels, "MIN_SLAB_ITEMS", 1)
        monkeypatch.setenv("REPRO_TEST_CRASH_DIST_LEN", "6")  # shard 1
        engine = PartitionedEngine(
            threads=2, partitions=2, inner="shm",
            inner_options={"min_dispatch_items": 1},
            parallel_shards=False,  # keep the warning on the main thread
        )
        try:
            batch.apply_to(g)
            with pytest.warns(RuntimeWarning, match="died mid-superstep"):
                apply_mixed_batch(g, tree, batch, engine=engine)
        finally:
            engine.close()
        np.testing.assert_array_equal(tree.dist, ref.dist)
        tree.certify(g)
        assert engine.last_exchange_stats["supersteps"] >= 1

    def test_close_unlinks_every_shard_pool_segment(self):
        """``close()`` tears down all shard pools: every shared-memory
        segment any pool planted must be unlinked (attach raises)."""
        from multiprocessing import shared_memory

        rng = np.random.default_rng(4)
        n = 24
        g = DiGraph(n, k=1)
        for _ in range(70):
            g.add_edge(int(rng.integers(0, n)), int(rng.integers(0, n)),
                       [float(rng.integers(1, 9))])
        tree = SOSPTree.build(g, 0, 0)
        engine = PartitionedEngine(
            threads=2, partitions=2, inner="shm",
            inner_options={"min_dispatch_items": 1},
        )
        batch = _insert([
            (int(rng.integers(0, n)), int(rng.integers(0, n)), 1.0)
            for _ in range(6)
        ])
        _run(engine, g, tree, batch)
        segments = [
            info["segment"]
            for pool in engine.shard_pools
            for info in pool.plant_stats.values()
        ]
        assert segments, "expected the shard pools to have planted arrays"
        engine.close()
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_close_is_idempotent_and_engine_stays_usable(self):
        g = _chain_graph(6)
        tree = SOSPTree.build(g, 0, 0)
        engine = PartitionedEngine(threads=1, partitions=2, inner="serial")
        engine.close()
        engine.close()  # idempotent
        try:
            _run(engine, g, tree, _insert([(0, 1, 1.0), (1, 2, 1.0)]))
            np.testing.assert_array_equal(
                tree.dist[:3], np.array([0.0, 1.0, 2.0])
            )
        finally:
            engine.close()


# ------------------------------------------------- construction & registry
class TestConstructionAndRegistry:
    def test_resolve_by_name(self):
        e = resolve_engine("partitioned", threads=3)
        assert isinstance(unwrap_checked(e), PartitionedEngine)
        assert e.threads == 3
        assert e.partitions == 2
        assert callable(e.partitioned_sosp_update)  # the core routes here
        e.close()

    def test_unknown_engine_error_names_the_registry(self):
        with pytest.raises(UnknownEngineError) as exc_info:
            resolve_engine("gpu")
        err = exc_info.value
        assert err.name == "gpu"
        assert "partitioned" in err.valid
        assert "serial" in err.valid
        assert "partitioned" in str(err)
        assert isinstance(err, EngineError)  # old except clauses keep working

    def test_unknown_engine_error_round_trips_through_pickle(self):
        err = UnknownEngineError("gpu", ("serial", "partitioned"))
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, UnknownEngineError)
        assert clone.name == "gpu"
        assert clone.valid == ("serial", "partitioned")
        assert str(clone) == str(err)

    def test_invalid_configurations_are_rejected(self):
        with pytest.raises(EngineError, match="partitions"):
            PartitionedEngine(partitions=0)
        with pytest.raises(EngineError, match="nest"):
            PartitionedEngine(inner="partitioned")
        with pytest.raises(EngineError, match="partition_mode"):
            PartitionedEngine(partition_mode="metis")
        with pytest.raises(EngineError, match="assignment"):
            PartitionedEngine(partitions=2, assignment=np.array([0, 2]))

    def test_generic_parallel_for_is_inline_and_accounted(self):
        engine = PartitionedEngine(threads=1, partitions=2, inner="serial")
        try:
            out = engine.parallel_for([1, 2, 3], lambda x: x * x)
            assert out == [1, 4, 9]
            assert engine.work_units == 3.0
        finally:
            engine.close()


class TestWorkerSpanCollection:
    """Worker spans from shard pools merge with per-shard labels."""

    def test_worker_spans_carry_shard_and_worker_labels(self):
        from repro.core import sosp_update
        from repro.dynamic import random_insert_batch
        from repro.graph import road_like
        from repro.obs.engine import TracedEngine
        from repro.obs.tracer import Tracer, use_tracer

        g = road_like(2000, k=1, seed=0)
        tree = SOSPTree.build(g, 0)
        snapshot = CSRGraph.from_digraph(g)
        batch = random_insert_batch(g, 50, seed=1)
        batch.apply_to(g)
        snapshot.append_batch(batch)
        tracer = Tracer(recording=True)
        with use_tracer(tracer):
            engine = TracedEngine(PartitionedEngine(
                threads=2, partitions=2,
                inner_options={"min_dispatch_items": 1},
            ))
            try:
                sosp_update(g, tree, batch, engine=engine,
                            csr=snapshot)
            finally:
                engine.close()
        tree.certify(g)
        spans = tracer.drain()
        workers = [s for s in spans if s.name == "worker.slab"]
        assert workers, "expected dispatched worker spans"
        shards = {s.attrs["shard"] for s in workers}
        assert shards <= {"0", "1"} and shards
        by_id = {s.span_id: s for s in spans}
        for w in workers:
            assert "worker" in w.attrs
            anchor = by_id[w.parent_id]
            # re-parented under the shard pool's dispatching superstep,
            # itself inside the partitioned.superstep phase span
            assert anchor.name == "superstep"
            assert anchor.start <= w.start <= w.end <= anchor.end
