"""Unit and cross-validation tests for the SSSP substrate."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import AlgorithmError, TreeInvariantError, VertexError
from repro.graph import DiGraph, erdos_renyi, grid_road, random_geometric
from repro.parallel import WorkMeter
from repro.sssp import (
    bellman_ford,
    certify_sssp,
    delta_stepping,
    dijkstra,
    recompute_sssp,
)

ALGOS = [
    ("dijkstra", dijkstra),
    ("bellman_ford", bellman_ford),
    ("delta_stepping", delta_stepping),
]


def to_networkx(g: DiGraph, objective: int = 0) -> nx.DiGraph:
    h = nx.DiGraph()
    h.add_nodes_from(range(g.num_vertices))
    for u, v, eid in g.edges():
        w = g.weight_scalar(eid, objective)
        if h.has_edge(u, v):
            if w < h[u][v]["weight"]:
                h[u][v]["weight"] = w
        else:
            h.add_edge(u, v, weight=w)
    return h


def reference_dist(g: DiGraph, source: int, objective: int = 0):
    h = to_networkx(g, objective)
    lengths = nx.single_source_dijkstra_path_length(h, source)
    out = np.full(g.num_vertices, np.inf)
    for v, d in lengths.items():
        out[v] = d
    return out


@pytest.fixture
def small_graph():
    # the classic diamond-with-shortcut
    return DiGraph.from_edge_list(
        5,
        [
            (0, 1, 10.0),
            (0, 2, 3.0),
            (2, 1, 4.0),
            (1, 3, 2.0),
            (2, 3, 8.0),
            (3, 4, 7.0),
            (2, 4, 50.0),
        ],
    )


@pytest.mark.parametrize("name,algo", ALGOS)
class TestAgainstHand:
    def test_small_graph_distances(self, name, algo, small_graph):
        dist, parent = algo(small_graph, 0)
        assert dist.tolist() == [0.0, 7.0, 3.0, 9.0, 16.0]

    def test_small_graph_certified(self, name, algo, small_graph):
        dist, parent = algo(small_graph, 0)
        certify_sssp(small_graph, 0, dist, parent)

    def test_unreachable(self, name, algo):
        g = DiGraph.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        dist, parent = algo(g, 0)
        assert dist[2] == np.inf and dist[3] == np.inf
        assert parent[2] == -1 and parent[3] == -1
        certify_sssp(g, 0, dist, parent)

    def test_single_vertex(self, name, algo):
        g = DiGraph(1)
        dist, parent = algo(g, 0)
        assert dist.tolist() == [0.0]
        assert parent.tolist() == [-1]

    def test_source_out_of_range(self, name, algo):
        g = DiGraph(2)
        g.add_edge(0, 1, 1.0)
        with pytest.raises(VertexError):
            algo(g, 5)

    def test_zero_weight_edges(self, name, algo):
        g = DiGraph.from_edge_list(3, [(0, 1, 0.0), (1, 2, 0.0)])
        dist, _ = algo(g, 0)
        assert dist.tolist() == [0.0, 0.0, 0.0]

    def test_parallel_edges_use_cheapest(self, name, algo):
        g = DiGraph(2)
        g.add_edge(0, 1, 9.0)
        g.add_edge(0, 1, 2.0)
        dist, _ = algo(g, 0)
        assert dist[1] == 2.0

    def test_second_objective(self, name, algo):
        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 100.0))
        g.add_edge(0, 2, (100.0, 1.0))
        g.add_edge(1, 2, (1.0, 100.0))
        d0, _ = algo(g, 0, objective=0)
        d1, _ = algo(g, 0, objective=1)
        assert d0[2] == 2.0
        assert d1[2] == 1.0


@pytest.mark.parametrize("name,algo", ALGOS)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
class TestAgainstNetworkx:
    def test_erdos_renyi(self, name, algo, seed):
        g = erdos_renyi(60, 300, seed=seed)
        dist, parent = algo(g, 0)
        np.testing.assert_allclose(dist, reference_dist(g, 0), rtol=1e-9)
        certify_sssp(g, 0, dist, parent)

    def test_grid_road(self, name, algo, seed):
        g = grid_road(7, 8, seed=seed)
        dist, parent = algo(g, 3)
        np.testing.assert_allclose(dist, reference_dist(g, 3), rtol=1e-9)
        certify_sssp(g, 3, dist, parent)


class TestRecomputeDispatch:
    def test_all_algorithms(self):
        g = erdos_renyi(30, 120, seed=0)
        ref = reference_dist(g, 0)
        for name in ("dijkstra", "bellman_ford", "delta_stepping"):
            dist, parent = recompute_sssp(g, 0, algorithm=name)
            np.testing.assert_allclose(dist, ref, rtol=1e-9)

    def test_unknown_rejected(self):
        g = DiGraph(2)
        with pytest.raises(AlgorithmError):
            recompute_sssp(g, 0, algorithm="astar")

    def test_meter_counts_work(self):
        g = erdos_renyi(30, 120, seed=0)
        m = WorkMeter()
        recompute_sssp(g, 0, algorithm="dijkstra", meter=m)
        assert m.total > 0


class TestDeltaSteppingParams:
    def test_explicit_delta(self):
        g = erdos_renyi(40, 160, seed=1)
        ref = reference_dist(g, 0)
        for delta in (0.5, 2.0, 100.0):
            dist, _ = delta_stepping(g, 0, delta=delta)
            np.testing.assert_allclose(dist, ref, rtol=1e-9)

    def test_nonpositive_delta_rejected(self):
        g = erdos_renyi(5, 10, seed=0)
        with pytest.raises(AlgorithmError):
            delta_stepping(g, 0, delta=0.0)

    def test_rgg(self):
        g = random_geometric(300, seed=2)
        dist, parent = delta_stepping(g, 0)
        ref, _ = dijkstra(g, 0)
        np.testing.assert_allclose(dist, ref, rtol=1e-9)


class TestCertifier:
    def test_rejects_too_small_distance(self, ):
        g = DiGraph.from_edge_list(2, [(0, 1, 5.0)])
        dist, parent = dijkstra(g, 0)
        dist[1] = 1.0  # claims better than possible -> parent not tight
        with pytest.raises(TreeInvariantError):
            certify_sssp(g, 0, dist, parent)

    def test_rejects_too_large_distance(self):
        g = DiGraph.from_edge_list(2, [(0, 1, 5.0)])
        dist, parent = dijkstra(g, 0)
        dist[1] = 9.0  # relaxable edge remains
        with pytest.raises(TreeInvariantError):
            certify_sssp(g, 0, dist, parent)

    def test_rejects_bad_parent(self):
        g = DiGraph.from_edge_list(3, [(0, 1, 1.0), (0, 2, 1.0)])
        dist, parent = dijkstra(g, 0)
        parent[1] = 2  # no (2, 1) edge
        with pytest.raises(TreeInvariantError):
            certify_sssp(g, 0, dist, parent)

    def test_rejects_nonzero_source(self):
        g = DiGraph(2)
        g.add_edge(0, 1, 1.0)
        dist, parent = dijkstra(g, 0)
        dist[0] = 1.0
        with pytest.raises(TreeInvariantError):
            certify_sssp(g, 0, dist, parent)

    def test_rejects_parent_on_unreachable(self):
        g = DiGraph(3)
        g.add_edge(0, 1, 1.0)
        dist, parent = dijkstra(g, 0)
        parent[2] = 0
        with pytest.raises(TreeInvariantError):
            certify_sssp(g, 0, dist, parent)

    def test_rejects_shape_mismatch(self):
        g = DiGraph(3)
        with pytest.raises(TreeInvariantError):
            certify_sssp(g, 0, np.zeros(2), np.zeros(3, dtype=int))
