"""Property-based round-trip and cross-representation invariants."""

import io

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, DiGraph
from repro.graph.io import edge_list_to_string, read_edge_list
from repro.graph.validation import validate_csr, validate_digraph
from repro.sssp import bellman_ford, delta_stepping, dijkstra, frontier_bellman_ford

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_graphs(draw, k_choices=(1, 2, 3), max_n=12):
    n = draw(st.integers(1, max_n))
    k = draw(st.sampled_from(k_choices))
    weight = st.floats(min_value=0.0, max_value=50.0, allow_nan=False,
                       width=32)
    edge = st.tuples(
        st.integers(0, n - 1),
        st.integers(0, n - 1),
        st.tuples(*([weight] * k)),
    )
    edges = draw(st.lists(edge, max_size=4 * n))
    g = DiGraph(n, k=k)
    for u, v, w in edges:
        g.add_edge(u, v, w)
    return g


def edge_multiset(g):
    return sorted(
        (u, v, tuple(np.round(g.weight(e), 6))) for u, v, e in g.edges()
    )


class TestRoundTrips:
    @SETTINGS
    @given(small_graphs())
    def test_edge_list_roundtrip(self, g):
        h = read_edge_list(io.StringIO(edge_list_to_string(g)))
        assert h.num_vertices == g.num_vertices
        assert h.num_objectives == g.num_objectives
        assert edge_multiset(h) == edge_multiset(g)

    @SETTINGS
    @given(small_graphs())
    def test_csr_roundtrip(self, g):
        csr = CSRGraph.from_digraph(g)
        validate_csr(csr)
        h = csr.to_digraph()
        assert edge_multiset(h) == edge_multiset(g)

    @SETTINGS
    @given(small_graphs())
    def test_copy_and_reverse_involution(self, g):
        validate_digraph(g)
        rr = g.reverse().reverse()
        assert edge_multiset(rr) == edge_multiset(g)
        assert edge_multiset(g.copy()) == edge_multiset(g)


class TestSolverAgreement:
    @SETTINGS
    @given(small_graphs(k_choices=(1,)), st.integers(0, 11))
    def test_all_solvers_agree(self, g, source_raw):
        source = source_raw % g.num_vertices
        d1, _ = dijkstra(g, source)
        d2, _ = bellman_ford(g, source)
        d3, _ = delta_stepping(g, source)
        d4, _ = frontier_bellman_ford(g, source)
        np.testing.assert_allclose(d1, d2, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(d1, d3, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(d1, d4, rtol=1e-6, atol=1e-9)

    @SETTINGS
    @given(small_graphs(k_choices=(2,)), st.integers(0, 11))
    def test_objectives_independent(self, g, source_raw):
        """Solving objective i must ignore the other columns."""
        source = source_raw % g.num_vertices
        for i in range(2):
            di, _ = dijkstra(g, source, objective=i)
            # rebuild a single-objective graph from column i
            h = DiGraph(g.num_vertices, k=1)
            for u, v, e in g.edges():
                h.add_edge(u, v, (g.weight_scalar(e, i),))
            dh, _ = dijkstra(h, source)
            np.testing.assert_allclose(di, dh, rtol=1e-9)
