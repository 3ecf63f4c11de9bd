"""Tests for the fully dynamic extension (deletions + mixed batches),
run through :func:`~repro.core.sosp_update.sosp_update`."""

import numpy as np
import pytest

from repro.core import SOSPTree, UpdateStats, sosp_update
from repro.dynamic import (
    ChangeBatch,
    random_delete_batch,
    random_insert_batch,
    random_mixed_batch,
)
from repro.graph import DiGraph, erdos_renyi, grid_road
from repro.parallel import SimulatedEngine
from repro.sssp import dijkstra


def assert_tree_correct(g, tree):
    ref, _ = dijkstra(g, tree.source, tree.objective)
    np.testing.assert_allclose(tree.dist, ref, rtol=1e-9)
    tree.certify(g)


class TestDeletions:
    def test_delete_nontree_edge_noop(self):
        g = DiGraph.from_edge_list(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 5.0)])
        tree = SOSPTree.build(g, 0)
        before = tree.dist.copy()
        batch = ChangeBatch.deletions([(1, 2)])
        batch.apply_to(g)
        stats = sosp_update(g, tree, batch)
        np.testing.assert_array_equal(tree.dist, before)
        assert stats.invalidated == 0
        assert_tree_correct(g, tree)

    def test_delete_tree_edge_reroutes(self):
        g = DiGraph.from_edge_list(
            3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]
        )
        tree = SOSPTree.build(g, 0)
        assert tree.dist[2] == 2.0
        batch = ChangeBatch.deletions([(1, 2)])
        batch.apply_to(g)
        stats = sosp_update(g, tree, batch)
        assert tree.dist[2] == 5.0
        assert tree.parent[2] == 0
        assert stats.invalidated == 1
        assert_tree_correct(g, tree)

    def test_delete_disconnects_subtree(self):
        # path 0 -> 1 -> 2 -> 3; cutting (0,1) strands everything
        g = DiGraph.from_edge_list(
            4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
        )
        tree = SOSPTree.build(g, 0)
        batch = ChangeBatch.deletions([(0, 1)])
        batch.apply_to(g)
        stats = sosp_update(g, tree, batch)
        assert np.isinf(tree.dist[1:]).all()
        assert (tree.parent[1:] == -1).all()
        assert stats.invalidated == 3
        assert_tree_correct(g, tree)

    def test_subtree_reconnects_through_side_door(self):
        # cutting the trunk forces the subtree to re-enter via a
        # more expensive side edge
        g = DiGraph.from_edge_list(
            5,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (0, 4, 10.0),
                (4, 2, 10.0),
            ],
        )
        tree = SOSPTree.build(g, 0)
        assert tree.dist.tolist() == [0.0, 1.0, 2.0, 3.0, 10.0]
        batch = ChangeBatch.deletions([(1, 2)])
        batch.apply_to(g)
        sosp_update(g, tree, batch)
        assert tree.dist.tolist() == [0.0, 1.0, 20.0, 21.0, 10.0]
        assert_tree_correct(g, tree)

    def test_parallel_edge_survives_deletion(self):
        g = DiGraph(2)
        g.add_edge(0, 1, 3.0)
        g.add_edge(0, 1, 3.0)  # duplicate weight
        tree = SOSPTree.build(g, 0)
        batch = ChangeBatch.deletions([(0, 1)])
        batch.apply_to(g)
        sosp_update(g, tree, batch)
        assert tree.dist[1] == 3.0  # twin edge still certifies
        assert_tree_correct(g, tree)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_deletions_match_recompute(self, seed):
        g = erdos_renyi(40, 200, seed=seed)
        tree = SOSPTree.build(g, 0)
        batch = random_delete_batch(g, 40, seed=seed + 1)
        batch.apply_to(g)
        sosp_update(g, tree, batch)
        assert_tree_correct(g, tree)


class TestMixedBatches:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mixed_matches_recompute(self, seed):
        g = grid_road(7, 7, seed=seed)
        tree = SOSPTree.build(g, 0)
        batch = random_mixed_batch(g, 60, insert_fraction=0.6,
                                   seed=seed + 5)
        batch.apply_to(g)
        stats = sosp_update(g, tree, batch)
        assert_tree_correct(g, tree)
        if batch.num_insertions:
            # the insertion work is reported Algorithm-1-shaped
            assert isinstance(stats, UpdateStats)
            assert stats.step1_passes == 1

    def test_insert_only_delegates_to_algorithm1(self):
        g = erdos_renyi(20, 80, seed=0)
        tree = SOSPTree.build(g, 0)
        batch = random_insert_batch(g, 20, seed=1)
        batch.apply_to(g)
        stats = sosp_update(g, tree, batch)
        assert stats.invalidated == 0
        assert isinstance(stats, UpdateStats)
        assert stats.step1_passes == 1
        assert_tree_correct(g, tree)

    def test_delete_then_reinsert_same_edge(self):
        g = DiGraph.from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])
        tree = SOSPTree.build(g, 0)
        batch = ChangeBatch.concat(
            ChangeBatch.deletions([(1, 2)]),
            ChangeBatch.insertions([(1, 2, 4.0)]),
        )
        batch.apply_to(g)
        sosp_update(g, tree, batch)
        assert tree.dist[2] == 5.0
        assert_tree_correct(g, tree)

    def test_engine_accounting(self):
        g = erdos_renyi(40, 160, seed=9)
        tree = SOSPTree.build(g, 0)
        batch = random_mixed_batch(g, 60, insert_fraction=0.5, seed=10)
        batch.apply_to(g)
        eng = SimulatedEngine(threads=4)
        sosp_update(g, tree, batch, engine=eng)
        assert eng.virtual_time > 0
        assert_tree_correct(g, tree)


class TestMultiObjectiveDeletion:
    def test_second_objective_tree(self):
        g = erdos_renyi(30, 150, k=2, seed=11)
        tree = SOSPTree.build(g, 0, objective=1)
        batch = random_delete_batch(g, 30, seed=12)
        batch.apply_to(g)
        sosp_update(g, tree, batch)
        assert_tree_correct(g, tree)
