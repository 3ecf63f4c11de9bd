"""Tests for the combined/ensemble graph (Algorithm 2, Step 2)."""

import pytest

from repro.core import SOSPTree, build_ensemble
from repro.core.priorities import budget_driven_priorities, normalize_priorities
from repro.errors import AlgorithmError
from repro.graph import DiGraph, erdos_renyi
from repro.parallel import SimulatedEngine


def two_tree_fixture():
    """A graph whose two objectives produce different SOSP trees with
    one shared edge."""
    g = DiGraph(4, k=2)
    g.add_edge(0, 1, (1.0, 1.0))    # shared by both trees
    g.add_edge(1, 2, (1.0, 9.0))    # tree 0 only
    g.add_edge(1, 3, (9.0, 1.0))    # tree 1 only
    g.add_edge(3, 2, (9.0, 1.0))    # tree 1 only
    g.add_edge(2, 3, (1.0, 9.0))    # tree 0 only
    trees = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
    return g, trees


class TestBalancedWeights:
    def test_shared_edge_weight_1_unique_weight_2(self):
        g, trees = two_tree_fixture()
        ens = build_ensemble(trees)
        # k=2: shared edge -> k-x+1 = 1; unique edge -> 2
        assert ens.occurrences[(0, 1)] == 2
        csr = ens.csr
        for u, v, w in csr.edges():
            x = ens.occurrences[(u, v)]
            assert w[0] == 2 - x + 1

    def test_edge_set_is_union_of_trees(self):
        g, trees = two_tree_fixture()
        ens = build_ensemble(trees)
        expected = set(trees[0].tree_edges()) | set(trees[1].tree_edges())
        got = {(u, v) for u, v, _ in ens.csr.edges()}
        assert got == expected

    def test_identical_trees_all_weight_one(self):
        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 1.0))
        g.add_edge(1, 2, (1.0, 1.0))
        trees = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
        ens = build_ensemble(trees)
        for _, _, w in ens.csr.edges():
            assert w[0] == 1.0

    def test_three_objectives(self):
        g = DiGraph(3, k=3)
        g.add_edge(0, 1, (1.0, 1.0, 9.0))
        g.add_edge(0, 2, (9.0, 9.0, 1.0))
        g.add_edge(2, 1, (1.0, 1.0, 1.0))
        trees = [SOSPTree.build(g, 0, objective=i) for i in range(3)]
        ens = build_ensemble(trees)
        # edge (0,1) is the tree edge of objectives 0 and 1 -> x=2 -> w=2
        assert ens.occurrences[(0, 1)] == 2
        weights = {(u, v): w[0] for u, v, w in ens.csr.edges()}
        assert weights[(0, 1)] == 3 - 2 + 1


class TestWeightingSchemes:
    def test_unit_weights(self):
        g, trees = two_tree_fixture()
        ens = build_ensemble(trees, weighting="unit")
        assert all(w[0] == 1.0 for _, _, w in ens.csr.edges())

    def test_priority_weights(self):
        g, trees = two_tree_fixture()
        ens = build_ensemble(trees, weighting="priority",
                             priorities=(4.0, 1.0))
        weights = {(u, v): w[0] for u, v, w in ens.csr.edges()}
        # tree-0-only edge (1,2): weight 1/4; tree-1-only edge (1,3): 1
        assert weights[(1, 2)] == pytest.approx(0.25)
        assert weights[(1, 3)] == pytest.approx(1.0)
        # shared edge takes the smallest (highest-priority) weight
        assert weights[(0, 1)] == pytest.approx(0.25)

    def test_priority_requires_priorities(self):
        g, trees = two_tree_fixture()
        with pytest.raises(AlgorithmError):
            build_ensemble(trees, weighting="priority")

    def test_bad_priorities_rejected(self):
        g, trees = two_tree_fixture()
        with pytest.raises(AlgorithmError):
            build_ensemble(trees, weighting="priority", priorities=(1.0,))
        with pytest.raises(AlgorithmError):
            build_ensemble(trees, weighting="priority",
                           priorities=(1.0, -2.0))

    def test_unknown_weighting_rejected(self):
        g, trees = two_tree_fixture()
        with pytest.raises(AlgorithmError):
            build_ensemble(trees, weighting="harmonic")


class TestValidation:
    def test_empty_trees_rejected(self):
        with pytest.raises(AlgorithmError):
            build_ensemble([])

    def test_mismatched_sources_rejected(self):
        g = erdos_renyi(10, 40, k=2, seed=0)
        t0 = SOSPTree.build(g, 0, objective=0)
        t1 = SOSPTree.build(g, 1, objective=1)
        with pytest.raises(AlgorithmError):
            build_ensemble([t0, t1])

    def test_mismatched_sizes_rejected(self):
        g1 = erdos_renyi(10, 30, seed=0)
        g2 = erdos_renyi(12, 30, seed=0)
        t0 = SOSPTree.build(g1, 0)
        t1 = SOSPTree.build(g2, 0)
        with pytest.raises(AlgorithmError):
            build_ensemble([t0, t1])

    def test_unreachable_vertices_excluded(self):
        g = DiGraph(4, k=2)
        g.add_edge(0, 1, (1.0, 1.0))  # vertices 2, 3 unreachable
        trees = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
        ens = build_ensemble(trees)
        assert {(u, v) for u, v, _ in ens.csr.edges()} == {(0, 1)}

    def test_engine_charges_work(self):
        g, trees = two_tree_fixture()
        eng = SimulatedEngine(threads=4)
        build_ensemble(trees, engine=eng)
        assert eng.virtual_time > 0


class TestPriorityHelpers:
    def test_normalize(self):
        p = normalize_priorities([1.0, 3.0])
        assert p.tolist() == [0.25, 0.75]

    def test_normalize_rejects_nonpositive(self):
        with pytest.raises(AlgorithmError):
            normalize_priorities([1.0, 0.0])
        with pytest.raises(AlgorithmError):
            normalize_priorities([])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(AlgorithmError):
                normalize_priorities([1.0, bad])

    def test_budget_pressure(self):
        # energy (obj 1) at 95% of budget -> its priority dominates
        p = budget_driven_priorities([30.0, 95.0], [None, 100.0])
        assert p[0] == 1.0
        assert p[1] > 2.0

    def test_under_half_budget_no_pressure(self):
        p = budget_driven_priorities([10.0, 40.0], [None, 100.0])
        assert p.tolist() == [1.0, 1.0]

    def test_bad_budget_rejected(self):
        with pytest.raises(AlgorithmError):
            budget_driven_priorities([1.0], [0.0])
        with pytest.raises(AlgorithmError):
            budget_driven_priorities([1.0, 2.0], [None])
        with pytest.raises(AlgorithmError):
            budget_driven_priorities([-1.0], [1.0])
