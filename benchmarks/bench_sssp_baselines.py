"""Substrate benchmark — the static SSSP solvers, wall clock.

Not a paper figure; this is the pytest-benchmark comparison of the
recompute baselines that anchor the update-vs-recompute analysis:
Dijkstra (both queue variants), Bellman-Ford (vectorised rounds and
frontier), Δ-stepping, and the point-to-point accelerations.

Expected shape on a sparse road stand-in (wall time, CPython):

- full SSSP: lazy-heap Dijkstra first; the addressable heap pays for
  its position index in pure Python; *round-based* Bellman-Ford beats
  the *frontier* variant on the high-diameter road graph despite doing
  ~40x more edge relaxations — its rounds are whole-array numpy
  operations while the frontier loop is per-vertex Python.  (On the
  work-unit/virtual-time ledger, and on the shallow post-insertion
  ensemble graphs of Algorithm 2, the ordering flips back — which is
  why `mosp_update` defaults to the frontier kernel.  A neat lesson in
  CPython constant factors vs algorithmic work.)
- point-to-point: ALT (with a prebuilt index) and bidirectional search
  beat running a full Dijkstra and reading one entry.
"""

import pytest

from repro.bench.datasets import load_dataset
from repro.sssp import (
    ALTIndex,
    alt_search,
    bellman_ford,
    bidirectional_dijkstra,
    delta_stepping,
    dijkstra,
    frontier_bellman_ford,
)

DATASET = "roadNet-PA"


@pytest.fixture(scope="module")
def road():
    return load_dataset(DATASET, k=1)


@pytest.fixture(scope="module")
def alt_index(road):
    return ALTIndex(road, num_landmarks=4)


class TestFullSSSP:
    def test_dijkstra_lazy(self, benchmark, road):
        dist, _ = benchmark.pedantic(
            lambda: dijkstra(road, 0, queue="lazy"), rounds=3, iterations=1
        )
        assert dist[0] == 0.0

    def test_dijkstra_addressable(self, benchmark, road):
        dist, _ = benchmark.pedantic(
            lambda: dijkstra(road, 0, queue="addressable"),
            rounds=3, iterations=1,
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


class TestPointToPoint:
    DEST = 4321

    def test_full_dijkstra_then_read(self, benchmark, road):
        def run():
            dist, _ = dijkstra(road, 0)
            return dist[self.DEST]

        benchmark.pedantic(run, rounds=3, iterations=1)

    def test_bidirectional(self, benchmark, road):
        benchmark.pedantic(
            lambda: bidirectional_dijkstra(road, 0, self.DEST),
            rounds=3, iterations=1,
        )

    def test_alt_with_prebuilt_index(self, benchmark, road, alt_index):
        benchmark.pedantic(
            lambda: alt_search(road, 0, self.DEST, index=alt_index),
            rounds=3, iterations=1,
        )
