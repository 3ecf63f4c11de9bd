"""Tests for Algorithm 1 (sosp_update): unit, oracle, and engine parity."""

import numpy as np
import pytest

from repro.core import SOSPTree, sosp_update
from repro.dynamic import ChangeBatch, random_insert_batch
from repro.errors import AlgorithmError
from repro.graph import DiGraph, erdos_renyi, grid_road, random_geometric
from repro.parallel import (
    CheckedEngine,
    SerialEngine,
    SimulatedEngine,
    resolve_engine,
)
from repro.sssp import dijkstra
from tests._sosp_reference import (
    gather_unique_neighbors,
    group_by_destination,
    sosp_update_reference,
)

ENGINES = [
    None,
    SerialEngine(),
    # the multi-thread slot: three virtual threads, many slabs per superstep
    pytest.param(SimulatedEngine(threads=3), id="threads"),
    SimulatedEngine(threads=4),
]


def assert_tree_correct(g, tree):
    ref_dist, _ = dijkstra(g, tree.source, tree.objective)
    np.testing.assert_allclose(tree.dist, ref_dist, rtol=1e-9)
    tree.certify(g)


class TestGrouping:
    def test_groups_by_destination(self):
        batch = ChangeBatch.insertions(
            [(0, 2, 1.0), (1, 2, 2.0), (3, 4, 3.0)]
        )
        groups = group_by_destination(batch)
        as_dict = {v: sorted(zip(s.tolist(), w.tolist()))
                   for v, s, w in groups}
        assert as_dict == {2: [(0, 1.0), (1, 2.0)], 4: [(3, 3.0)]}

    def test_empty_batch(self):
        assert group_by_destination(ChangeBatch.insertions([])) == []

    def test_objective_selection(self):
        batch = ChangeBatch.insertions([(0, 1, (5.0, 7.0))])
        (v, s, w), = group_by_destination(batch, objective=1)
        assert w.tolist() == [7.0]

    def test_deletions_excluded(self):
        batch = ChangeBatch.concat(
            ChangeBatch.insertions([(0, 1, 1.0)]),
            ChangeBatch.deletions([(2, 3)]),
        )
        groups = group_by_destination(batch)
        assert len(groups) == 1 and groups[0][0] == 1


class TestGatherNeighbors:
    def test_unique_and_deterministic(self):
        g = DiGraph(4)
        g.add_edge(0, 2, 1.0)
        g.add_edge(0, 3, 1.0)
        g.add_edge(1, 2, 1.0)
        assert gather_unique_neighbors(g, [0, 1]) == [2, 3]
        assert gather_unique_neighbors(g, [1, 0]) == [2, 3]

    def test_empty_affected(self):
        g = DiGraph(2)
        assert gather_unique_neighbors(g, []) == []


class TestPaperExample:
    """The worked example of Figure 2 (§3.1), reconstructed.

    A 7-vertex network where inserting three edges triggers exactly
    the two-iteration propagation the figure illustrates.
    """

    def build(self):
        # vertices: 0=source(u0), 1..6 = u1..u6
        g = DiGraph(7)
        g.add_edge(0, 1, 2.0)   # source -> u1
        g.add_edge(0, 3, 5.0)   # source -> u3
        g.add_edge(1, 2, 10.0)  # u1 -> u2 (expensive)
        g.add_edge(3, 2, 4.0)   # u3 -> u2
        g.add_edge(3, 5, 9.0)   # u3 -> u5 (expensive)
        g.add_edge(2, 4, 3.0)   # u2 -> u4
        g.add_edge(5, 4, 1.0)   # u5 -> u4
        g.add_edge(4, 6, 2.0)   # u4 -> u6
        return g

    def test_update_matches_recompute(self):
        g = self.build()
        tree = SOSPTree.build(g, 0)
        assert tree.dist.tolist() == [0.0, 2.0, 9.0, 5.0, 12.0, 14.0, 14.0]
        # Ins = {(u1,u2,5), (u3,u5,1), (u1,u5,4)} in figure spirit:
        # u2 improves via (u1,u2), u5 via the better of its two edges
        batch = ChangeBatch.insertions(
            [(1, 2, 5.0), (3, 5, 1.0), (1, 5, 4.0)]
        )
        batch.apply_to(g)
        stats = sosp_update(
            g, tree, batch, engine=CheckedEngine(SerialEngine())
        )
        assert_tree_correct(g, tree)
        # u2 and u5 improve in step 1; propagation needs >= 2 iterations
        # (u4 then u6)
        assert stats.affected_initial == 2
        assert stats.iterations >= 2


@pytest.mark.parametrize("engine", ENGINES,
                         ids=lambda e: getattr(e, "name", "default"))
class TestEnginesAgree:
    def test_single_insert(self, engine):
        g = DiGraph.from_edge_list(3, [(0, 1, 5.0), (1, 2, 5.0)])
        tree = SOSPTree.build(g, 0)
        batch = ChangeBatch.insertions([(0, 2, 3.0)])
        batch.apply_to(g)
        sosp_update(g, tree, batch, engine=engine)
        assert tree.dist.tolist() == [0.0, 5.0, 3.0]
        assert tree.parent[2] == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_batches(self, engine, seed):
        g = erdos_renyi(60, 240, seed=seed)
        tree = SOSPTree.build(g, 0)
        batch = random_insert_batch(g, 80, seed=seed + 10)
        batch.apply_to(g)
        sosp_update(
            g, tree, batch, engine=resolve_engine(engine, checked=True)
        )
        assert_tree_correct(g, tree)


class TestUpdateSemantics:
    def test_noop_batch_changes_nothing(self):
        g = erdos_renyi(20, 60, seed=0)
        tree = SOSPTree.build(g, 0)
        before = tree.dist.copy()
        # insert an edge too expensive to matter
        batch = ChangeBatch.insertions([(1, 2, 1000.0)])
        batch.apply_to(g)
        stats = sosp_update(g, tree, batch)
        np.testing.assert_array_equal(tree.dist, before)
        assert stats.affected_initial == 0
        assert stats.iterations == 0

    def test_empty_batch(self):
        g = erdos_renyi(10, 30, seed=0)
        tree = SOSPTree.build(g, 0)
        stats = sosp_update(g, tree, ChangeBatch.insertions([]))
        assert stats.affected_total == 0
        assert_tree_correct(g, tree)

    def test_connects_unreachable_component(self):
        g = DiGraph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        tree = SOSPTree.build(g, 0)
        assert tree.dist[3] == np.inf
        batch = ChangeBatch.insertions([(1, 2, 1.0)])
        batch.apply_to(g)
        sosp_update(g, tree, batch)
        assert tree.dist.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert_tree_correct(g, tree)

    def test_chain_propagation_many_iterations(self):
        # a long path, shortcut inserted at the head: the improvement
        # must ripple the whole way down
        n = 50
        g = DiGraph(n)
        g.add_edge(0, 1, 100.0)
        for i in range(1, n - 1):
            g.add_edge(i, i + 1, 1.0)
        tree = SOSPTree.build(g, 0)
        batch = ChangeBatch.insertions([(0, 1, 1.0)])
        batch.apply_to(g)
        stats = sosp_update(g, tree, batch)
        assert_tree_correct(g, tree)
        assert stats.iterations >= n - 3

    def test_batch_with_duplicate_destination(self):
        g = DiGraph.from_edge_list(3, [(0, 1, 10.0), (0, 2, 10.0)])
        tree = SOSPTree.build(g, 0)
        batch = ChangeBatch.insertions(
            [(0, 1, 5.0), (0, 1, 3.0), (2, 1, 1.0)]
        )
        batch.apply_to(g)
        sosp_update(g, tree, batch, engine=CheckedEngine(SerialEngine()))
        # best: 0->1 direct with 3.0
        assert tree.dist[1] == 3.0
        assert_tree_correct(g, tree)

    def test_multiobjective_tree_uses_its_objective(self):
        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (10.0, 1.0))
        g.add_edge(1, 2, (10.0, 1.0))
        t0 = SOSPTree.build(g, 0, objective=0)
        t1 = SOSPTree.build(g, 0, objective=1)
        batch = ChangeBatch.insertions([(0, 2, (5.0, 100.0))])
        batch.apply_to(g)
        sosp_update(g, t0, batch)
        sosp_update(g, t1, batch)
        assert t0.dist[2] == 5.0   # shortcut wins for objective 0
        assert t1.dist[2] == 2.0   # but not for objective 1
        assert_tree_correct(g, t0)
        assert_tree_correct(g, t1)

    def test_tree_size_mismatch_rejected(self):
        g = DiGraph(3)
        tree = SOSPTree(0, np.zeros(2), np.full(2, -1))
        with pytest.raises(AlgorithmError):
            sosp_update(g, tree, ChangeBatch.insertions([]))


class TestGroupingAblation:
    def test_ungrouped_same_result(self):
        g = erdos_renyi(40, 160, seed=3)
        t1 = SOSPTree.build(g, 0)
        t2 = t1.copy()
        batch = random_insert_batch(g, 60, seed=4)
        batch.apply_to(g)
        sosp_update(g, t1, batch)
        sosp_update_reference(g, t2, batch, use_grouping=False)
        np.testing.assert_allclose(t1.dist, t2.dist)

    def test_grouped_single_pass(self):
        g = erdos_renyi(40, 160, seed=3)
        tree = SOSPTree.build(g, 0)
        batch = random_insert_batch(g, 60, seed=4)
        batch.apply_to(g)
        stats = sosp_update(g, tree, batch)
        assert stats.step1_passes == 1

    def test_ungrouped_may_need_extra_passes(self):
        # chain of inserted edges: each pass extends the improvement by
        # one hop, so ungrouped step 1 needs multiple passes
        g = DiGraph(5)
        g.add_edge(0, 4, 100.0)
        tree = SOSPTree.build(g, 0)
        batch = ChangeBatch.insertions(
            [(3, 4, 1.0), (2, 3, 1.0), (1, 2, 1.0), (0, 1, 1.0)]
        )
        batch.apply_to(g)
        stats = sosp_update_reference(g, tree.copy(), batch,
                                      use_grouping=False)
        assert stats.step1_passes >= 2
        # grouping finishes step 1 in one pass and lets step 2 propagate
        gstats = sosp_update(g, tree, batch)
        assert gstats.step1_passes == 1
        assert_tree_correct(g, tree)


class TestStats:
    def test_relaxations_counted(self):
        g = erdos_renyi(30, 120, seed=1)
        tree = SOSPTree.build(g, 0)
        batch = random_insert_batch(g, 40, seed=2)
        batch.apply_to(g)
        stats = sosp_update(g, tree, batch)
        assert stats.relaxations >= batch.num_insertions

    def test_frontier_sizes_match_iterations(self):
        g = grid_road(8, 8, seed=0)
        tree = SOSPTree.build(g, 0)
        batch = random_insert_batch(g, 30, seed=1, low=0.1, high=0.5)
        batch.apply_to(g)
        stats = sosp_update(g, tree, batch)
        assert len(stats.frontier_sizes) == stats.iterations

    def test_simulated_engine_accumulates_time(self):
        g = random_geometric(400, seed=0)
        tree = SOSPTree.build(g, 0)
        batch = random_insert_batch(g, 100, seed=1, low=0.1, high=1.0)
        batch.apply_to(g)
        eng = SimulatedEngine(threads=8)
        sosp_update(g, tree, batch, engine=eng)
        assert eng.virtual_time > 0
        assert eng.supersteps >= 1
        assert_tree_correct(g, tree)
