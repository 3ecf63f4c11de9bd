"""Tests for repro.graph.analysis."""

import networkx as nx
import pytest

from repro.errors import VertexError
from repro.graph import DiGraph, erdos_renyi, grid_road, path_graph
from repro.graph.analysis import (
    bfs_hops,
    degree_statistics,
    estimate_effective_diameter,
    graph_summary,
    largest_wcc_fraction,
    weakly_connected_components,
)


class TestBFS:
    def test_path_graph_hops(self):
        g = path_graph(5, seed=0)
        assert bfs_hops(g, 0).tolist() == [0, 1, 2, 3, 4]

    def test_unreachable_is_minus_one(self):
        g = DiGraph(3)
        g.add_edge(0, 1, 1.0)
        assert bfs_hops(g, 0).tolist() == [0, 1, -1]

    def test_direction_respected(self):
        g = path_graph(3, seed=0)
        assert bfs_hops(g, 2).tolist() == [-1, -1, 0]

    def test_bad_source(self):
        with pytest.raises(VertexError):
            bfs_hops(DiGraph(2), 7)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_against_networkx(self, seed):
        g = erdos_renyi(40, 150, seed=seed)
        h = nx.DiGraph(
            (u, v) for u, v, _ in g.edges()
        )
        h.add_nodes_from(range(40))
        ref = nx.single_source_shortest_path_length(h, 0)
        hops = bfs_hops(g, 0)
        for v in range(40):
            assert hops[v] == ref.get(v, -1)


class TestComponents:
    def test_two_islands(self):
        g = DiGraph(5)
        g.add_edge(0, 1, 1.0)
        g.add_edge(3, 4, 1.0)
        comps = weakly_connected_components(g)
        assert sorted(sorted(c) for c in comps) == [[0, 1], [2], [3, 4]]

    def test_direction_ignored(self):
        g = DiGraph(3)
        g.add_edge(1, 0, 1.0)
        g.add_edge(1, 2, 1.0)
        assert len(weakly_connected_components(g)) == 1

    def test_largest_first(self):
        g = DiGraph(6)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(4, 5, 1.0)
        comps = weakly_connected_components(g)
        assert len(comps[0]) == 3

    def test_fraction(self):
        g = DiGraph(4)
        g.add_edge(0, 1, 1.0)
        assert largest_wcc_fraction(g) == 0.5
        assert largest_wcc_fraction(DiGraph(0)) == 0.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_against_networkx(self, seed):
        g = erdos_renyi(30, 40, seed=seed)
        h = nx.DiGraph((u, v) for u, v, _ in g.edges())
        h.add_nodes_from(range(30))
        ours = sorted(
            tuple(sorted(c)) for c in weakly_connected_components(g)
        )
        ref = sorted(
            tuple(sorted(c)) for c in nx.weakly_connected_components(h)
        )
        assert ours == ref


class TestDegreeStats:
    def test_star(self):
        g = DiGraph(4)
        for v in (1, 2, 3):
            g.add_edge(0, v, 1.0)
        stats = degree_statistics(g)
        assert stats["mean"] == pytest.approx(0.75)
        assert stats["max"] == 3
        assert stats["sinks"] == pytest.approx(0.75)

    def test_empty(self):
        assert degree_statistics(DiGraph(0))["mean"] == 0.0


class TestDiameter:
    def test_path_diameter(self):
        g = path_graph(20, seed=0)
        d = estimate_effective_diameter(g, samples=20, quantile=1.0)
        assert d == 19.0

    def test_grid_scales_with_side(self):
        small = estimate_effective_diameter(grid_road(5, 5, seed=0,
                                                      drop_fraction=0.0))
        big = estimate_effective_diameter(grid_road(15, 15, seed=0,
                                                    drop_fraction=0.0))
        assert big > small

    def test_empty_graph(self):
        assert estimate_effective_diameter(DiGraph(0)) == 0.0
        assert estimate_effective_diameter(DiGraph(3)) == 0.0


class TestSummary:
    def test_keys_and_sanity(self):
        g = grid_road(6, 6, seed=1, k=2)
        s = graph_summary(g)
        assert s["vertices"] == 36
        assert s["objectives"] == 2
        assert 0 < s["avg_out_degree"] < 5
        assert 0 < s["largest_wcc_fraction"] <= 1.0
        assert s["effective_diameter"] > 0
