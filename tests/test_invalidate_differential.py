"""Differential certification of the array Step D (invalidate).

``repro.core.sosp_update._invalidate`` tests every deletion and
weight-change record at once and sweeps the dirty subtrees over the
tree's child CSR.  It must return exactly ``sorted()`` of the set the
per-vertex walk in :mod:`tests._fully_dynamic_reference` collects, with
the same ``dirty_roots`` / ``invalidated`` counts, and a whole
``sosp_update`` run with either Step D must leave ``dist`` *and*
``parent`` bitwise equal — with a DiGraph argument frozen on entry or
a ``CSRGraph`` argument maintained across batches, and on every engine
backend.
"""

from __future__ import annotations

import copy
import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SOSPTree, UpdateStats, sosp_update
from repro.dynamic import (
    KIND_DELETE,
    KIND_INSERT,
    KIND_WEIGHT,
    ChangeBatch,
    random_mixed_batch,
)
from repro.graph import grid_road
from repro.graph.csr import CSRGraph
from repro.obs.tracer import Tracer, use_tracer
from repro.parallel import (
    SerialEngine,
    SharedMemoryEngine,
    SimulatedEngine,
)
from tests._fully_dynamic_reference import (
    invalidate_reference,
    invalidate_reference_sorted,
)
from tests.test_fully_dynamic_mixed import (
    assert_matches_dijkstra,
    build_graph,
    graph_and_mixed_batches,
    make_batch,
    with_seed_set_cases,
)

# the package re-exports the function over the submodule's name
sosp_module = importlib.import_module("repro.core.sosp_update")


def reference_step_d():
    """Run the pipeline on the old walk (which reads live weights from
    a thawed copy of the pipeline's snapshot)."""
    return mock.patch.object(
        sosp_module, "_invalidate",
        lambda snapshot, tree, batch, stats: invalidate_reference_sorted(
            snapshot.to_digraph(), tree, batch, stats
        ),
    )


def assert_same_dirty_set(g, tree, batch):
    """Both Step Ds on one (updated graph, pre-batch tree) state."""
    before = (tree.dist.copy(), tree.parent.copy())
    got_stats = UpdateStats()
    got = sosp_module._invalidate(
        CSRGraph.from_digraph(g), tree, batch, got_stats
    )
    ref_stats = UpdateStats()
    ref = invalidate_reference(g, tree, batch, ref_stats)
    assert got.dtype == np.int64
    assert got.tolist() == sorted(ref)
    assert got_stats.dirty_roots == ref_stats.dirty_roots
    assert got_stats.invalidated == ref_stats.invalidated
    # Step D only collects; the callers reset the tree
    np.testing.assert_array_equal(tree.dist, before[0])
    np.testing.assert_array_equal(tree.parent, before[1])
    return got, got_stats


def run_pipeline(graph, batches, maintained, engine=None, reference=False):
    """Play ``batches`` through ``sosp_update``; returns the tree
    and the per-batch stats.  ``maintained`` passes a ``CSRGraph`` kept
    current with ``apply_batch``; otherwise the DiGraph, which each
    call freezes."""
    g = copy.deepcopy(graph)
    tree = SOSPTree.build(g, 0)
    update_graph = CSRGraph.from_digraph(g) if maintained else g
    stats = []
    for batch in batches:
        batch.apply_to(g)
        if maintained:
            update_graph.apply_batch(batch)
        if reference:
            with reference_step_d():
                s = sosp_update(update_graph, tree, batch, engine=engine)
        else:
            s = sosp_update(update_graph, tree, batch, engine=engine)
        stats.append(s)
    return g, tree, stats


def assert_pipelines_bitwise_equal(graph, batches, maintained, engine=None):
    g, got, got_stats = run_pipeline(graph, batches, maintained, engine)
    _, ref, ref_stats = run_pipeline(
        graph, batches, maintained, engine, reference=True
    )
    np.testing.assert_array_equal(got.dist, ref.dist)
    np.testing.assert_array_equal(got.parent, ref.parent)
    for a, b in zip(got_stats, ref_stats):
        assert (a.dirty_roots, a.invalidated, a.seed_stimuli) == (
            b.dirty_roots, b.invalidated, b.seed_stimuli,
        )
        assert a.affected_vertices == b.affected_vertices
    return g, got, got_stats


# ----------------------------------------------------------------------
class TestDirtySetProperty:
    @given(data=graph_and_mixed_batches(max_batches=3))
    def test_dirty_set_equals_reference_walk(self, data):
        g, batches = data
        tree = SOSPTree.build(g, 0)
        for batch in batches:
            batch.apply_to(g)
            assert_same_dirty_set(g, tree, batch)
            sosp_update(g, tree, batch)

    @given(data=graph_and_mixed_batches(k=2, max_n=10, max_batches=2))
    def test_second_objective_dirty_set(self, data):
        g, batches = data
        tree = SOSPTree.build(g, 0, objective=1)
        for batch in batches:
            batch.apply_to(g)
            assert_same_dirty_set(g, tree, batch)
            sosp_update(g, tree, batch)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 10**6))
    def test_generator_batches_on_road_grid(self, seed):
        g = grid_road(8, 8, seed=seed % 97)
        tree = SOSPTree.build(g, 0)
        for step in range(3):
            batch = random_mixed_batch(
                g, 40, insert_fraction=0.3, seed=seed + step,
                weight_change_fraction=0.3,
            )
            batch.apply_to(g)
            assert_same_dirty_set(g, tree, batch)
            sosp_update(g, tree, batch)
        assert_matches_dijkstra(g, tree, exact=False)

    @pytest.mark.parametrize("maintained", [False, True])
    @with_seed_set_cases
    @given(data=graph_and_mixed_batches(max_batches=3))
    def test_pipeline_bitwise_equals_reference_step_d(self, maintained, data):
        graph, batches = data
        g, tree, _ = assert_pipelines_bitwise_equal(graph, batches, maintained)
        assert_matches_dijkstra(g, tree)


# ----------------------------------------------------------------------
class TestEdgeCases:
    """Deterministic Step-D shapes, each checked against the walk, the
    whole reference pipeline, and from-scratch Dijkstra."""

    def _check(self, g, batch, maintained):
        tree = SOSPTree.build(g, 0)
        g_after = copy.deepcopy(g)
        batch.apply_to(g_after)
        dirty, stats = assert_same_dirty_set(g_after, tree.copy(), batch)
        g_final, updated, _ = assert_pipelines_bitwise_equal(
            g, [batch], maintained
        )
        assert_matches_dijkstra(g_final, updated)
        return dirty, stats, tree, updated

    @pytest.mark.parametrize("maintained", [False, True])
    def test_nested_roots(self, maintained):
        # path 0 -> 1 -> 2 -> 3 -> 4 -> 5; root 4 lies inside root 2's
        # subtree and is listed first
        g = build_graph(6, 1, [(i, i + 1, 1.0) for i in range(5)]
                        + [(0, 4, 9.0)])
        batch = make_batch(
            [(KIND_DELETE, 3, 4, (0.0,)), (KIND_WEIGHT, 1, 2, (7.0,))], k=1
        )
        dirty, stats, _, updated = self._check(g, batch, maintained)
        assert stats.dirty_roots == 2
        assert dirty.tolist() == [2, 3, 4, 5]
        assert updated.dist.tolist() == [0.0, 1.0, 8.0, 9.0, 9.0, 10.0]

    @pytest.mark.parametrize("maintained", [False, True])
    def test_duplicate_and_self_cancelling_records_on_one_pair(
        self, maintained
    ):
        g = build_graph(4, 1, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
                               (0, 2, 6.0)])
        batch = make_batch([
            (KIND_WEIGHT, 1, 2, (9.0,)),
            (KIND_DELETE, 1, 2, (0.0,)),
            (KIND_INSERT, 1, 2, (3.0,)),
            (KIND_WEIGHT, 1, 2, (4.0,)),
            (KIND_DELETE, 1, 2, (0.0,)),
            (KIND_DELETE, 1, 2, (0.0,)),
        ], k=1)
        dirty, stats, _, updated = self._check(g, batch, maintained)
        assert stats.dirty_roots == 1  # one root however many records
        assert dirty.tolist() == [2, 3]
        assert updated.dist.tolist() == [0.0, 1.0, 6.0, 7.0]

    @pytest.mark.parametrize("maintained", [False, True])
    def test_deleting_one_of_two_equal_parallel_edges(self, maintained):
        g = build_graph(3, 1, [(0, 1, 2.0), (0, 1, 2.0), (1, 2, 1.0)])
        batch = make_batch([(KIND_DELETE, 0, 1, (0.0,))], k=1)
        # the batch removes one parallel; its twin still certifies
        dirty, stats, tree, updated = self._check(g, batch, maintained)
        assert dirty.size == 0 and stats.dirty_roots == 0
        np.testing.assert_array_equal(updated.dist, tree.dist)

    @pytest.mark.parametrize("maintained", [False, True])
    def test_weight_drop_on_tree_edge(self, maintained):
        g = build_graph(4, 1, [(0, 1, 3.0), (1, 2, 3.0), (2, 3, 3.0)])
        batch = ChangeBatch.weight_changes([(1, 2, 1.0)])
        dirty, stats, _, updated = self._check(g, batch, maintained)
        assert dirty.size == 0 and stats.invalidated == 0
        assert updated.dist.tolist() == [0.0, 3.0, 4.0, 7.0]

    @pytest.mark.parametrize("maintained", [False, True])
    def test_records_into_unreachable_vertices(self, maintained):
        # 3 and 4 are unreachable from 0; records touch them only
        g = build_graph(5, 1, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0),
                               (4, 3, 2.0)])
        batch = make_batch([
            (KIND_DELETE, 3, 4, (0.0,)),
            (KIND_WEIGHT, 4, 3, (8.0,)),
            (KIND_DELETE, 2, 3, (0.0,)),
        ], k=1)
        dirty, stats, _, updated = self._check(g, batch, maintained)
        assert dirty.size == 0 and stats.dirty_roots == 0
        assert np.isinf(updated.dist[3:]).all()

    @pytest.mark.parametrize("maintained", [False, True])
    def test_deep_path_of_400_levels(self, maintained):
        n = 401
        g = build_graph(n, 1, [(i, i + 1, 1.0) for i in range(n - 1)]
                        + [(0, n - 1, 1000.0)])
        batch = make_batch([(KIND_DELETE, 0, 1, (0.0,))], k=1)
        dirty, stats, _, updated = self._check(g, batch, maintained)
        assert dirty.tolist() == list(range(1, n))  # 400 levels deep
        assert stats.invalidated == 400
        assert updated.dist[n - 1] == 1000.0
        assert np.isinf(updated.dist[1:n - 1]).all()

    @pytest.mark.parametrize("maintained", [False, True])
    def test_deleting_the_sources_only_out_edge(self, maintained):
        rng = np.random.default_rng(7)
        n = 60
        edges = [(0, 1, 1.0)] + [(i, i + 1, 5.0) for i in range(1, n - 1)]
        for _ in range(150):
            u, v = rng.integers(1, n, size=2)
            edges.append((int(u), int(v), float(rng.integers(0, 10))))
        edges += [(7, 0, 1.0), (30, 0, 2.0)]  # edges back into the source
        g = build_graph(n, 1, edges)
        batch = make_batch([(KIND_DELETE, 0, 1, (0.0,))], k=1)
        dirty, stats, _, updated = self._check(g, batch, maintained)
        assert dirty.tolist() == list(range(1, n))
        assert stats.dirty_roots == 1
        assert updated.dist[0] == 0.0 and np.isinf(updated.dist[1:]).all()

    @pytest.mark.parametrize("maintained", [False, True])
    def test_no_deletions_or_raises_skips_the_child_index(self, maintained):
        g = build_graph(4, 1, [(0, 1, 4.0), (1, 2, 4.0), (0, 3, 9.0),
                               (3, 2, 1.0)])
        batch = make_batch([
            (KIND_INSERT, 0, 2, (5.0,)),
            (KIND_WEIGHT, 1, 2, (2.0,)),  # drop on a tree edge
            (KIND_WEIGHT, 0, 3, (1.0,)),
            (KIND_DELETE, 2, 0, (0.0,)),  # absent edge
        ], k=1)

        def boom(self):
            raise AssertionError("child index built without a dirty root")

        with mock.patch.object(SOSPTree, "child_index", boom):
            g_final, tree, stats = run_pipeline(g, [batch], maintained)
        assert stats[0].dirty_roots == 0 and stats[0].invalidated == 0
        assert_matches_dijkstra(g_final, tree)


# ----------------------------------------------------------------------
ENGINES = [
    SerialEngine(),
    SharedMemoryEngine(threads=2, min_dispatch_items=1),
    SharedMemoryEngine(threads=2),
    SimulatedEngine(threads=4),
]


def teardown_module(module) -> None:
    for e in ENGINES:
        closer = getattr(e, "close", None)
        if callable(closer):
            closer()


@pytest.mark.slow
@settings(max_examples=20, deadline=None)
@with_seed_set_cases
@given(data=graph_and_mixed_batches(max_batches=2))
def test_every_engine_bitwise_equals_reference_step_d(data):
    graph, batches = data
    for engine in ENGINES:
        g, tree, _ = assert_pipelines_bitwise_equal(
            graph, batches, maintained=True, engine=engine
        )
        assert_matches_dijkstra(g, tree)


@pytest.mark.parametrize("engine_index, span_name", [
    (0, "sosp_update.invalidate"),
])
def test_invalidate_span_reports_roots_and_subtree_size(
    engine_index, span_name
):
    # two dirty roots, one nested in the other's subtree, cover four
    # vertices: the span must tell roots apart from subtree members
    g = build_graph(6, 1, [(i, i + 1, 1.0) for i in range(5)]
                    + [(0, 4, 9.0)])
    batch = make_batch(
        [(KIND_DELETE, 3, 4, (0.0,)), (KIND_WEIGHT, 1, 2, (7.0,))], k=1
    )
    tracer = Tracer(recording=True)
    with use_tracer(tracer):
        run_pipeline(g, [batch], maintained=True, engine=ENGINES[engine_index])
    spans = [s for s in tracer.drain() if s.name == span_name]
    assert len(spans) == 1
    attrs = spans[0].to_dict()["attrs"]
    assert attrs["dirty_roots"] == 2 and attrs["invalidated"] == 4
