"""Mixed insert/delete batches through the full MOSP pipeline."""

import numpy as np
import pytest

from repro.core import SOSPTree, mosp_update
from repro.dynamic import ChangeBatch, random_mixed_batch
from repro.errors import NotReachableError
from repro.graph import CSRGraph, DiGraph, erdos_renyi, grid_road
from repro.sssp import dijkstra
from repro.types import NO_PARENT


def trees_correct(g, trees):
    for i, t in enumerate(trees):
        ref, _ = dijkstra(g, t.source, i)
        np.testing.assert_allclose(t.dist, ref, rtol=1e-9)


class TestMospUpdateMixed:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_batch_trees_correct(self, seed):
        g = erdos_renyi(40, 200, k=2, seed=seed)
        trees = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
        batch = random_mixed_batch(g, 40, insert_fraction=0.5,
                                   seed=seed + 9)
        batch.apply_to(g)
        r = mosp_update(g, trees, batch)
        trees_correct(g, trees)
        # returned costs are real path costs
        for v in range(g.num_vertices):
            if np.isfinite(r.dist_vectors[v]).all() and v != 0:
                path = r.path_to(v)
                assert path[0] == 0 and path[-1] == v

    def test_deletion_only_batch(self):
        g = grid_road(6, 6, k=2, seed=3)
        trees = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
        batch = ChangeBatch.deletions(
            [next(iter((u, v) for u, v, _ in g.edges()))], k=2
        )
        batch.apply_to(g)
        mosp_update(g, trees, batch)
        trees_correct(g, trees)

    def test_step_timers_with_mixed_batch(self):
        g = erdos_renyi(25, 120, k=2, seed=4)
        trees = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
        batch = random_mixed_batch(g, 20, insert_fraction=0.5, seed=5)
        batch.apply_to(g)
        r = mosp_update(g, trees, batch)
        assert "sosp_update_0" in r.step_seconds
        assert "bellman_ford" in r.step_seconds


class TestInsertThenDeleteSameEdge:
    """Regression: a mixed batch may insert an edge and then delete it
    (records apply in order, deletion removes the cheapest live twin).
    Updates must seed from the *live* graph, never from a phantom
    record weight — hypothesis originally found this via
    test_mosp_dynamic_front.py::TestProperty::test_fully_dynamic_streams.
    """

    def make_batch(self, k):
        # insert a very cheap (0, 2) edge, then delete (0, 2): the
        # deletion removes the cheap twin, leaving only the original
        return ChangeBatch.concat(
            ChangeBatch.insertions([(0, 2, tuple([0.1] * k))]),
            ChangeBatch.deletions([(0, 2)], k=k),
        )

    def test_apply_mixed_batch(self):
        from repro.core import sosp_update

        g = DiGraph(3, k=1)
        g.add_edge(0, 1, (1.0,))
        g.add_edge(1, 2, (1.0,))
        g.add_edge(0, 2, (9.0,))
        tree = SOSPTree.build(g, 0)
        batch = self.make_batch(1)
        batch.apply_to(g)
        sosp_update(g, tree, batch)
        assert tree.dist[2] == 2.0  # not 0.1
        tree.certify(g)

    def test_dynamic_pareto_front(self):
        from repro.mosp import DynamicParetoFront, martins

        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 1.0))
        g.add_edge(1, 2, (1.0, 1.0))
        g.add_edge(0, 2, (9.0, 0.5))
        dpf = DynamicParetoFront(g, 0)
        batch = self.make_batch(2)
        batch.apply_to(g)
        dpf.update(batch)
        ref = martins(g, 0)
        got = sorted(map(tuple, dpf.front(2).tolist()))
        want = sorted(map(tuple, ref.front(2).tolist()))
        assert got == want
        assert (0.1, 0.1) not in got  # the phantom cost

    def test_mosp_update_over_a_maintained_csr(self):
        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 1.0))
        g.add_edge(1, 2, (1.0, 1.0))
        g.add_edge(0, 2, (9.0, 9.0))
        csr = CSRGraph.from_digraph(g)
        trees = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
        batch = self.make_batch(2)
        batch.apply_to(g)
        csr.apply_batch(batch)
        r = mosp_update(csr, trees, batch)
        trees_correct(g, trees)
        assert r.cost_to(2).tolist() == [2.0, 2.0]


class TestMaintainedCSR:
    """``mosp_update`` over one ``CSRGraph`` kept current with
    ``apply_batch`` (insertions in spare slots, deletions as
    tombstones), batch after batch."""

    @staticmethod
    def path_graph():
        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 2.0))
        g.add_edge(1, 2, (1.0, 2.0))
        csr = CSRGraph.from_digraph(g)
        trees = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
        assert mosp_update(csr, trees).path_to(2) == [0, 1, 2]
        return csr, trees

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_stream_stays_correct(self, seed):
        g = erdos_renyi(30, 150, k=2, seed=seed)
        csr = CSRGraph.from_digraph(g)
        trees = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
        for step in range(3):
            batch = random_mixed_batch(g, 20, insert_fraction=0.6,
                                       seed=seed * 11 + step)
            batch.apply_to(g)
            csr.apply_batch(batch)
            r = mosp_update(csr, trees, batch)
            trees_correct(g, trees)
            # a MOSP path exactly where the trees reach, ending there
            reached = np.isfinite(r.dist_vectors).all(axis=1)
            np.testing.assert_array_equal(reached,
                                          np.isfinite(trees[0].dist))
            for v in np.flatnonzero(reached).tolist():
                path = r.path_to(v)
                assert path[0] == 0 and path[-1] == v
        # read in place all along: appended edges and tombstones in the
        # live ranges, never compacted
        assert csr.num_tail_edges and csr.num_dead and not csr.is_compact

    def test_shortcut_switches_path(self):
        csr, trees = self.path_graph()
        batch = ChangeBatch.insertions([(0, 2, (1.5, 1.5))])
        csr.apply_batch(batch)
        assert mosp_update(csr, trees, batch).path_to(2) == [0, 2]

    def test_disconnecting_deletion(self):
        csr, trees = self.path_graph()
        batch = ChangeBatch.deletions([(1, 2)], k=2)
        csr.apply_batch(batch)
        r = mosp_update(csr, trees, batch)
        assert csr.num_dead == 1
        assert np.isinf(r.dist_vectors[2]).all()
        assert r.parent[2] == NO_PARENT
        with pytest.raises(NotReachableError):
            r.path_to(2)
        assert r.path_to(1) == [0, 1]
