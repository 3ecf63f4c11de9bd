"""Unit tests for SOSPTree, MOSPResult, and small shared utilities."""

import numpy as np
import pytest

from repro.core import MOSPResult, SOSPTree
from repro.errors import (
    NotReachableError,
    OwnershipViolation,
    ReproError,
    TreeInvariantError,
    VertexError,
)
from repro.graph import CSRGraph, DiGraph, erdos_renyi
from repro.types import INF, NO_PARENT, as_float_array, as_vertex_array


class TestSOSPTree:
    @pytest.fixture
    def tree(self):
        g = DiGraph.from_edge_list(
            5, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 5.0), (2, 3, 1.0)]
        )
        return g, SOSPTree.build(g, 0)

    def test_build_algorithms_agree(self):
        g = erdos_renyi(30, 120, seed=0)
        td = SOSPTree.build(g, 0, algorithm="dijkstra")
        tb = SOSPTree.build(g, 0, algorithm="bellman_ford")
        np.testing.assert_allclose(td.dist, tb.dist)

    def test_build_from_csr(self):
        g = erdos_renyi(10, 40, seed=1)
        t = SOSPTree.build(CSRGraph.from_digraph(g), 0)
        assert t.num_vertices == 10

    def test_path_to_source(self, tree):
        g, t = tree
        assert t.path_to(0) == [0]

    def test_path_to_unreachable_raises(self):
        g = DiGraph(3)
        g.add_edge(0, 1, 1.0)
        t = SOSPTree.build(g, 0)
        with pytest.raises(NotReachableError):
            t.path_to(2)

    def test_path_to_bad_vertex(self, tree):
        g, t = tree
        with pytest.raises(VertexError):
            t.path_to(77)

    def test_path_to_detects_parent_cycle(self):
        # corrupted parent pointers must not loop forever
        t = SOSPTree(0, np.array([0.0, 1.0, 2.0]),
                     np.array([-1, 2, 1]))
        with pytest.raises(NotReachableError):
            t.path_to(2)

    def test_tree_edges(self, tree):
        g, t = tree
        assert set(t.tree_edges()) == {(0, 1), (1, 2), (2, 3)}

    def test_child_index(self, tree):
        g, t = tree
        indptr, kids = t.child_index()
        children = [kids[indptr[p]:indptr[p + 1]].tolist() for p in range(5)]
        assert children == [[1], [2], [3], [], []]

    @pytest.fixture
    def branchy(self):
        # 0 -> {1, 4}, 1 -> {2, 3}, 4 -> {5}; 6 unreachable; the source's
        # own parent slot is corrupted to point at 3
        parent = np.array([3, 0, 1, 1, 0, 4, NO_PARENT])
        dist = np.array([0.0, 1.0, 2.0, 2.0, 1.0, 2.0, INF])
        return SOSPTree(0, dist, parent)

    def test_child_index_skips_source_and_unreachable(self, branchy):
        indptr, kids = branchy.child_index()
        assert indptr.tolist() == [0, 2, 4, 4, 4, 5, 5, 5]
        assert kids.tolist() == [1, 4, 2, 3, 5]

    def test_subtree_excludes_source(self, branchy):
        # 3's subtree would loop back to the source through the
        # corrupted pointer if the source were anybody's child
        assert branchy.subtree(np.array([3])).tolist() == [3]
        assert branchy.subtree(np.array([1])).tolist() == [1, 2, 3]

    def test_subtree_excludes_unreachable(self, branchy):
        assert 6 not in branchy.subtree(np.array([1, 4])).tolist()
        assert branchy.subtree(np.array([6])).tolist() == [6]

    def test_subtree_multiple_roots(self, branchy):
        got = branchy.subtree(np.array([4, 2]))
        assert got.dtype == np.int64
        assert got.tolist() == [2, 4, 5]

    def test_subtree_root_given_twice(self, branchy):
        assert branchy.subtree(np.array([4, 1, 4])).tolist() == [
            1, 2, 3, 4, 5,
        ]

    def test_subtree_of_nothing_skips_the_index(self, branchy, monkeypatch):
        def boom(self):
            raise AssertionError("child index built for no roots")

        monkeypatch.setattr(SOSPTree, "child_index", boom)
        assert branchy.subtree(np.empty(0, dtype=np.int64)).size == 0

    def test_reachable_mask(self):
        g = DiGraph(3)
        g.add_edge(0, 1, 1.0)
        t = SOSPTree.build(g, 0)
        assert t.reachable_mask().tolist() == [True, True, False]

    def test_copy_independent(self, tree):
        g, t = tree
        c = t.copy()
        c.dist[1] = 99.0
        assert t.dist[1] == 1.0

    def test_certify_good_and_bad(self, tree):
        g, t = tree
        t.certify(g)
        t.dist[3] = 0.5
        with pytest.raises(TreeInvariantError):
            t.certify(g)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(VertexError):
            SOSPTree(0, np.zeros(3), np.zeros(2, dtype=np.int64))


class TestMOSPResult:
    def make(self):
        parent = np.array([-1, 0, -1], dtype=np.int64)
        dv = np.array([[0.0, 0.0], [1.0, 2.0], [INF, INF]])
        return MOSPResult(source=0, parent=parent, dist_vectors=dv,
                          ensemble=None)

    def test_path_and_cost(self):
        r = self.make()
        assert r.path_to(1) == [0, 1]
        assert r.cost_to(1).tolist() == [1.0, 2.0]

    def test_unreachable(self):
        r = self.make()
        with pytest.raises(NotReachableError):
            r.path_to(2)

    def test_broken_parent_chain(self):
        r = self.make()
        r.parent[1] = -1  # reachable cost but no parent
        with pytest.raises(NotReachableError):
            r.path_to(1)


class TestTypesHelpers:
    def test_as_float_array(self):
        a = as_float_array([1, 2, 3])
        assert a.dtype == np.float64
        assert a.flags["C_CONTIGUOUS"]

    def test_as_vertex_array(self):
        a = as_vertex_array([1, 2])
        assert a.dtype == np.int64

    def test_sentinels(self):
        assert INF == float("inf")
        assert NO_PARENT == -1


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (VertexError(1, 0), NotReachableError(0, 1),
                    TreeInvariantError("x"), OwnershipViolation(1, 0, 1)):
            assert isinstance(exc, ReproError)

    def test_vertex_error_message(self):
        e = VertexError(7, 3, "somewhere")
        assert "7" in str(e) and "somewhere" in str(e)

    def test_ownership_violation_fields(self):
        e = OwnershipViolation(5, 1, 2)
        assert e.vertex == 5
        assert e.first_task == 1 and e.second_task == 2

    def test_not_reachable_fields(self):
        e = NotReachableError(2, 9)
        assert e.source == 2 and e.destination == 9
