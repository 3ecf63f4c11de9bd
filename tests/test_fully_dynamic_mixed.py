"""Differential-oracle certification of the fully dynamic mixed pipeline.

``apply_mixed_batch`` must leave the SOSP tree *identical* to a
from-scratch Dijkstra recompute of the updated graph — distances
bitwise equal (integer weights make double sums exact) and parents
tree-certified — for arbitrary interleavings of insertions, deletions,
and weight raises/drops, including duplicate and self-cancelling edits
of one edge inside a single batch.  The property is certified both with
a DiGraph argument (frozen on entry) and with a ``CSRGraph`` argument
maintained through its incremental ``apply_batch`` mutation, across
single batches and multi-batch sequences.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SOSPTree, apply_mixed_batch, sosp_update
from repro.dynamic import (
    KIND_DELETE,
    KIND_INSERT,
    KIND_WEIGHT,
    ChangeBatch,
    random_mixed_batch,
)
from repro.errors import AlgorithmError
from repro.graph import DiGraph, grid_road
from repro.graph.csr import CSRGraph
from repro.sssp import dijkstra


def build_graph(n, k, edges):
    g = DiGraph(n, k=k)
    for u, v, w in edges:
        g.add_edge(u, v, w)
    return g


def make_batch(records, k):
    """``records`` = [(kind, u, v, weight_vector), ...] in order."""
    return ChangeBatch(
        np.array([r[1] for r in records], dtype=np.int64),
        np.array([r[2] for r in records], dtype=np.int64),
        np.array([r[3] for r in records], dtype=np.float64).reshape(
            len(records), k
        ),
        np.array([r[0] for r in records], dtype=np.int8),
    )


@st.composite
def graph_and_mixed_batches(draw, k=1, max_n=14, max_batches=1):
    """A random digraph plus mixed batches biased to hit live edges.

    Half the delete / weight-change records aim at base-graph edges (so
    tree edges actually get cut or re-weighted); the rest use uniform
    endpoints, covering no-op edits of absent edges.  Duplicate
    ``(u, v)`` records and insert-then-delete interleavings arise
    naturally from independent draws.
    """
    n = draw(st.integers(min_value=2, max_value=max_n))
    weight = st.integers(min_value=0, max_value=9).map(float)
    wvec = st.tuples(*([weight] * k))
    vertex = st.integers(0, n - 1)
    edge = st.tuples(vertex, vertex, wvec)
    base = draw(st.lists(edge, min_size=0, max_size=3 * n))
    pair = st.tuples(vertex, vertex)
    if base:
        pair = st.one_of(
            st.sampled_from([(u, v) for u, v, _ in base]), pair
        )
    record = st.tuples(
        st.sampled_from([KIND_DELETE, KIND_INSERT, KIND_WEIGHT]),
        pair,
        wvec,
    ).map(lambda r: (r[0], r[1][0], r[1][1], r[2]))
    n_batches = draw(st.integers(1, max_batches))
    batches = [
        make_batch(draw(st.lists(record, min_size=1, max_size=10)), k)
        for _ in range(n_batches)
    ]
    return build_graph(n, k, base), batches


def assert_matches_dijkstra(g, tree, exact=True):
    ref, _ = dijkstra(g, tree.source, tree.objective)
    if exact:  # integer weights: double sums are exact, demand bitwise
        np.testing.assert_array_equal(tree.dist, ref)
    else:
        np.testing.assert_allclose(tree.dist, ref, rtol=1e-9)
    tree.certify(g)


@pytest.mark.slow
class TestDifferentialOracle:
    @given(data=graph_and_mixed_batches())
    def test_reference_path_equals_dijkstra(self, data):
        """A DiGraph argument: each call freezes its own snapshot."""
        g, batches = data
        tree = SOSPTree.build(g, 0)
        for batch in batches:
            batch.apply_to(g)
            apply_mixed_batch(g, tree, batch)
        assert_matches_dijkstra(g, tree)

    @given(data=graph_and_mixed_batches(max_batches=3))
    def test_csr_path_equals_dijkstra_incrementally(self, data):
        """A maintained snapshot, mutated via ``apply_batch`` instead of
        re-frozen — certifying the CSR tombstone/overwrite
        machinery against the DiGraph as a side effect."""
        g, batches = data
        tree = SOSPTree.build(g, 0)
        snapshot = CSRGraph.from_digraph(g)
        for batch in batches:
            batch.apply_to(g)
            snapshot.apply_batch(batch)
            assert snapshot.num_edges == g.num_edges
            apply_mixed_batch(snapshot, tree, batch)
        assert_matches_dijkstra(g, tree)
        su, sv, sw = g.edge_arrays()
        expected = sorted(zip(su.tolist(), sv.tolist(), sw.tolist()))
        got = sorted((u, v, np.atleast_1d(w).tolist())
                     for u, v, w in snapshot.edges())
        assert got == expected

    @given(data=graph_and_mixed_batches(k=2, max_n=10))
    def test_second_objective_tree(self, data):
        g, batches = data
        tree = SOSPTree.build(g, 0, objective=1)
        for batch in batches:
            batch.apply_to(g)
            apply_mixed_batch(g, tree, batch)
        assert_matches_dijkstra(g, tree)

    @settings(max_examples=50)
    @given(seed=st.integers(0, 10**6))
    def test_generator_batches_on_road_grid(self, seed):
        """The benchmark-shaped workload: generator mixed batches over
        a road grid, frozen-on-entry and maintained snapshots in
        lockstep."""
        g = grid_road(5, 5, seed=seed % 97)
        g2 = copy.deepcopy(g)
        tree = SOSPTree.build(g, 0)
        tree2 = SOSPTree.build(g2, 0)
        snapshot = CSRGraph.from_digraph(g2)
        batch = random_mixed_batch(
            g, 25, insert_fraction=0.4, seed=seed,
            weight_change_fraction=0.3,
        )
        batch.apply_to(g)
        apply_mixed_batch(g, tree, batch)
        batch.apply_to(g2)
        snapshot.apply_batch(batch)
        apply_mixed_batch(snapshot, tree2, batch)
        assert_matches_dijkstra(g, tree, exact=False)
        np.testing.assert_array_equal(tree2.dist, tree.dist)
        tree2.certify(g2)


class TestEdgeCases:
    """Deterministic regressions for the trickiest interleavings."""

    def _updated(self, g, batch, maintained=False):
        """``maintained``: pass a ``CSRGraph`` kept current with
        ``apply_batch``; otherwise the DiGraph, frozen on entry."""
        tree = SOSPTree.build(g, 0)
        graph = CSRGraph.from_digraph(g) if maintained else g
        batch.apply_to(g)
        if maintained:
            graph.apply_batch(batch)
        stats = apply_mixed_batch(graph, tree, batch)
        assert_matches_dijkstra(g, tree)
        return tree, stats

    @pytest.mark.parametrize("maintained", [False, True])
    def test_weight_raise_on_tree_edge_reroutes(self, maintained):
        g = build_graph(3, 1, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
        batch = ChangeBatch.weight_changes([(1, 2, 9.0)])
        tree, stats = self._updated(g, batch, maintained)
        assert tree.dist[2] == 5.0 and tree.parent[2] == 0
        assert stats.invalidated == 1

    @pytest.mark.parametrize("maintained", [False, True])
    def test_weight_drop_on_tree_edge_improves_without_invalidate(
        self, maintained
    ):
        g = build_graph(4, 1, [(0, 1, 2.0), (1, 2, 2.0), (2, 3, 2.0)])
        batch = ChangeBatch.weight_changes([(0, 1, 1.0)])
        tree, stats = self._updated(g, batch, maintained)
        assert tree.dist.tolist() == [0.0, 1.0, 3.0, 5.0]
        assert stats.invalidated == 0  # drops never invalidate

    @pytest.mark.parametrize("maintained", [False, True])
    def test_weight_drop_on_nontree_edge_steals_subtree(self, maintained):
        g = build_graph(3, 1, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
        batch = ChangeBatch.weight_changes([(0, 2, 1.0)])
        tree, _ = self._updated(g, batch, maintained)
        assert tree.dist[2] == 1.0 and tree.parent[2] == 0

    @pytest.mark.parametrize("maintained", [False, True])
    def test_weight_raise_on_nontree_edge_noop(self, maintained):
        g = build_graph(3, 1, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
        batch = ChangeBatch.weight_changes([(0, 2, 9.0)])
        tree, stats = self._updated(g, batch, maintained)
        assert tree.dist[2] == 2.0
        assert stats.invalidated == 0

    @pytest.mark.parametrize("maintained", [False, True])
    def test_self_cancelling_insert_then_delete(self, maintained):
        g = build_graph(3, 1, [(0, 1, 4.0)])
        batch = make_batch(
            [(KIND_INSERT, 1, 2, (1.0,)), (KIND_DELETE, 1, 2, (0.0,))],
            k=1,
        )
        tree, _ = self._updated(g, batch, maintained)
        assert np.isinf(tree.dist[2])

    @pytest.mark.parametrize("maintained", [False, True])
    def test_delete_then_reinsert_same_edge(self, maintained):
        g = build_graph(3, 1, [(0, 1, 1.0), (1, 2, 1.0)])
        batch = make_batch(
            [(KIND_DELETE, 1, 2, (0.0,)), (KIND_INSERT, 1, 2, (4.0,))],
            k=1,
        )
        tree, _ = self._updated(g, batch, maintained)
        assert tree.dist[2] == 5.0

    @pytest.mark.parametrize("maintained", [False, True])
    def test_duplicate_weight_changes_last_wins(self, maintained):
        g = build_graph(2, 1, [(0, 1, 5.0)])
        batch = ChangeBatch.weight_changes([(0, 1, 9.0), (0, 1, 2.0)])
        tree, _ = self._updated(g, batch, maintained)
        assert tree.dist[1] == 2.0

    @pytest.mark.parametrize("maintained", [False, True])
    def test_weight_change_of_absent_edge_noop(self, maintained):
        g = build_graph(3, 1, [(0, 1, 1.0)])
        batch = ChangeBatch.weight_changes([(1, 2, 3.0)])
        tree, stats = self._updated(g, batch, maintained)
        assert np.isinf(tree.dist[2])
        assert stats.invalidated == 0

    @pytest.mark.parametrize("maintained", [False, True])
    def test_parallel_edge_shields_weight_raise(self, maintained):
        g = build_graph(2, 1, [(0, 1, 3.0), (0, 1, 3.0)])
        batch = ChangeBatch.weight_changes([(0, 1, 8.0)])
        tree, stats = self._updated(g, batch, maintained)
        assert tree.dist[1] == 3.0  # the twin still certifies
        assert stats.invalidated == 0

    def test_sosp_update_rejects_weight_changes(self):
        g = build_graph(2, 1, [(0, 1, 1.0)])
        tree = SOSPTree.build(g, 0)
        batch = ChangeBatch.weight_changes([(0, 1, 2.0)])
        with pytest.raises(AlgorithmError, match="weight changes"):
            sosp_update(g, tree, batch)

    def test_csr_out_of_sync_rejected(self):
        g = build_graph(3, 1, [(0, 1, 1.0), (1, 2, 1.0)])
        tree = SOSPTree.build(g, 0)
        snapshot = CSRGraph.from_digraph(g)
        batch = ChangeBatch.deletions([(1, 2)])
        batch.apply_to(g)  # snapshot NOT updated
        with pytest.raises(AlgorithmError, match="apply_batch"):
            apply_mixed_batch(g, tree, batch, csr=snapshot)

    def test_dynamic_front_rejects_weight_changes(self):
        from repro.mosp.dynamic_front import DynamicParetoFront

        g = DiGraph(2, k=2)
        g.add_edge(0, 1, (1.0, 1.0))
        dpf = DynamicParetoFront(g, 0)
        batch = ChangeBatch.weight_changes([(0, 1, (2.0, 2.0))])
        batch.apply_to(g)
        with pytest.raises(AlgorithmError, match="weight-change"):
            dpf.update(batch)

    def test_mosp_update_routes_mixed_batches(self):
        g = build_graph(
            4, 2,
            [
                (0, 1, (1.0, 4.0)),
                (1, 2, (1.0, 4.0)),
                (0, 2, (4.0, 1.0)),
                (2, 3, (1.0, 1.0)),
            ],
        )
        from repro.core import mosp_update

        trees = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
        batch = make_batch(
            [
                (KIND_WEIGHT, 1, 2, (9.0, 9.0)),
                (KIND_DELETE, 2, 3, (0.0, 0.0)),
                (KIND_INSERT, 0, 3, (2.0, 2.0)),
            ],
            k=2,
        )
        batch.apply_to(g)
        r = mosp_update(g, trees, batch)
        for i, t in enumerate(trees):
            ref, _ = dijkstra(g, 0, i)
            np.testing.assert_array_equal(t.dist, ref)
        assert r.cost_to(3).tolist() == [2.0, 2.0]


class TestLegacyCallShape:
    """``(DiGraph, ..., use_csr_kernels=True, csr=maintained)``, the call
    shape the wall-clock benchmark still uses, reads the maintained CSR:
    bitwise the same as passing that CSR as the graph argument."""

    STEPS = 3

    @staticmethod
    def _stream(seed, k):
        g = grid_road(6, 6, k=k, seed=seed)
        replica = copy.deepcopy(g)
        batches = []
        for step in range(TestLegacyCallShape.STEPS):
            batch = random_mixed_batch(
                replica, 20, insert_fraction=0.5,
                weight_change_fraction=0.25, seed=seed * 10 + step,
            )
            batch.apply_to(replica)
            batches.append(batch)
        return g, batches

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_apply_mixed_batch_legacy_shape_is_bitwise_equal(self, seed):
        g, batches = self._stream(seed, k=1)
        legacy_csr, csr = CSRGraph.from_digraph(g), CSRGraph.from_digraph(g)
        legacy, tree = SOSPTree.build(g, 0), SOSPTree.build(g, 0)
        for batch in batches:
            batch.apply_to(g)
            legacy_csr.apply_batch(batch)
            csr.apply_batch(batch)
            a = apply_mixed_batch(g, legacy, batch, use_csr_kernels=True,
                                  csr=legacy_csr)
            b = apply_mixed_batch(csr, tree, batch)
            assert a.affected_vertices == b.affected_vertices
            assert a.invalidated == b.invalidated
            assert legacy.dist.tobytes() == tree.dist.tobytes()
            assert legacy.parent.tobytes() == tree.parent.tobytes()
        assert_matches_dijkstra(g, tree)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mosp_update_legacy_shape_is_bitwise_equal(self, seed):
        from repro.core import mosp_update

        g, batches = self._stream(seed, k=2)
        legacy_csr, csr = CSRGraph.from_digraph(g), CSRGraph.from_digraph(g)
        legacy = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
        trees = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
        for batch in batches:
            batch.apply_to(g)
            legacy_csr.apply_batch(batch)
            csr.apply_batch(batch)
            a = mosp_update(g, legacy, batch, use_csr_kernels=True,
                            csr=legacy_csr)
            b = mosp_update(csr, trees, batch)
            assert a.parent.tobytes() == b.parent.tobytes()
            assert a.dist_vectors.tobytes() == b.dist_vectors.tobytes()
            for t_a, t_b in zip(legacy, trees):
                assert t_a.dist.tobytes() == t_b.dist.tobytes()
                assert t_a.parent.tobytes() == t_b.parent.tobytes()

    def test_mosp_update_refuses_a_snapshot_that_missed_a_batch(self):
        from repro.core import mosp_update

        g = build_graph(3, 2, [(0, 1, (1.0, 1.0)), (1, 2, (1.0, 1.0))])
        trees = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
        snapshot = CSRGraph.from_digraph(g)
        batch = ChangeBatch.insertions([(0, 2, (1.0, 1.0))])
        batch.apply_to(g)  # snapshot NOT updated
        before = [t.dist.tobytes() for t in trees]
        with pytest.raises(AlgorithmError, match="apply_batch"):
            mosp_update(g, trees, batch, use_csr_kernels=True,
                        csr=snapshot)
        assert [t.dist.tobytes() for t in trees] == before
