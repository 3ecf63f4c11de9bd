"""Mixed insert/delete batches through the full MOSP pipelines."""

import numpy as np
import pytest

from repro.core import IncrementalMOSP, SOSPTree, mosp_update
from repro.dynamic import ChangeBatch, random_mixed_batch
from repro.graph import CSRGraph, erdos_renyi, grid_road
from repro.sssp import dijkstra, frontier_bellman_ford


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
        from repro.core import apply_mixed_batch
        from repro.graph import DiGraph

        g = DiGraph(3, k=1)
        g.add_edge(0, 1, (1.0,))
        g.add_edge(1, 2, (1.0,))
        g.add_edge(0, 2, (9.0,))
        tree = SOSPTree.build(g, 0)
        batch = self.make_batch(1)
        batch.apply_to(g)
        apply_mixed_batch(g, tree, batch)
        assert tree.dist[2] == 2.0  # not 0.1
        tree.certify(g)

    def test_dynamic_pareto_front(self):
        from repro.graph import DiGraph
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

    def test_incremental_mosp(self):
        from repro.graph import DiGraph

        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 1.0))
        g.add_edge(1, 2, (1.0, 1.0))
        g.add_edge(0, 2, (9.0, 9.0))
        csr = CSRGraph.from_digraph(g)
        inc = IncrementalMOSP(csr, 0)
        batch = self.make_batch(2)
        batch.apply_to(g)
        csr.apply_batch(batch)
        r = inc.update(batch)
        trees_correct(g, inc.trees)
        assert r.cost_to(2).tolist() == [2.0, 2.0]


class TestIncrementalMOSPMixed:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_stream_stays_correct(self, seed):
        g = erdos_renyi(30, 150, k=2, seed=seed)
        csr = CSRGraph.from_digraph(g)
        inc = IncrementalMOSP(csr, 0)
        for step in range(3):
            batch = random_mixed_batch(g, 20, insert_fraction=0.6,
                                       seed=seed * 11 + step)
            batch.apply_to(g)
            csr.apply_batch(batch)
            inc.update(batch)
            trees_correct(g, inc.trees)
            inc.ensemble_tree.certify(inc.ensemble_graph)
            dist, _ = frontier_bellman_ford(inc.ensemble_graph, 0)
            np.testing.assert_allclose(inc.ensemble_tree.dist, dist,
                                       rtol=1e-9)

    def test_disconnecting_deletion(self):
        from repro.graph import DiGraph

        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 1.0))
        g.add_edge(1, 2, (1.0, 1.0))
        csr = CSRGraph.from_digraph(g)
        inc = IncrementalMOSP(csr, 0)
        assert inc.result().path_to(2) == [0, 1, 2]
        batch = ChangeBatch.deletions([(1, 2)], k=2)
        csr.apply_batch(batch)
        r = inc.update(batch)
        assert not np.isfinite(r.dist_vectors[2]).all()
        inc.ensemble_tree.certify(inc.ensemble_graph)
