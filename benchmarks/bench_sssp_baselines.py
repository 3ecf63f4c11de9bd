"""Substrate benchmark — the static SSSP solvers, wall clock.

Not a paper figure; this is the pytest-benchmark comparison of the
recompute baselines that anchor the update-vs-recompute analysis:
Dijkstra, Bellman-Ford (vectorised rounds and frontier), and
Δ-stepping.

Expected shape on a sparse road stand-in (wall time, CPython):
lazy-heap Dijkstra first; *round-based* Bellman-Ford beats the
*frontier* variant on the high-diameter road graph despite scanning
~18x more edges — its rounds are whole-array numpy operations
while the frontier loop is per-vertex Python.  A neat lesson in CPython
constant factors vs algorithmic work.
"""

import pytest

from repro.bench.datasets import load_dataset
from repro.sssp import (
    bellman_ford,
    delta_stepping,
    dijkstra,
    frontier_bellman_ford,
)

DATASET = "roadNet-PA"


@pytest.fixture(scope="module")
def road():
    return load_dataset(DATASET, k=1)


class TestFullSSSP:
    def test_dijkstra_lazy(self, benchmark, road):
        dist, _ = benchmark.pedantic(
            lambda: dijkstra(road, 0), rounds=3, iterations=1
        )
        assert dist[0] == 0.0

    def test_delta_stepping(self, benchmark, road):
        dist, _ = benchmark.pedantic(
            lambda: delta_stepping(road, 0), rounds=3, iterations=1
        )
        assert dist[0] == 0.0

    def test_frontier_bellman_ford(self, benchmark, road):
        dist, _ = benchmark.pedantic(
            lambda: frontier_bellman_ford(road, 0), rounds=3, iterations=1
        )
        assert dist[0] == 0.0

    def test_round_bellman_ford(self, benchmark, road):
        # vectorised rounds: numpy soaks the diameter factor, but it
        # is still the slowest full-SSSP kernel here
        dist, _ = benchmark.pedantic(
            lambda: bellman_ford(road, 0), rounds=1, iterations=1
        )
        assert dist[0] == 0.0

    def test_frontier_bellman_ford_csr_kernels(self, benchmark, road):
        # new vs old kernel: the reverse-CSR gather + segmented-argmin
        # variant of the frontier loop, i.e. the Step-2 kernel
        # repro.core.kernels.propagate_csr solving from scratch (the
        # wrapper lives in the tests' reference module)
        from repro.graph.csr import CSRGraph
        from tests._kernels_reference import frontier_bellman_ford_csr

        csr = CSRGraph.ensure(road)
        dist, _ = benchmark.pedantic(
            lambda: frontier_bellman_ford_csr(csr, 0),
            rounds=3, iterations=1,
        )
        ref, _ = frontier_bellman_ford(road, 0)
        assert dist[0] == 0.0
        import numpy as np

        np.testing.assert_array_equal(dist, ref)
