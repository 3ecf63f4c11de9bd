"""Differential suite for Algorithm 2's Steps 2–3 on the slot matrices.

Step 2 (:func:`~repro.core.ensemble.build_ensemble`) must produce the
slot matrices, edge arrays and lazily built CSR of the per-vertex
reference builder (``tests/_mosp_reference.py``) byte for byte.  Step 3
(:func:`~repro.core.ensemble.ensemble_bellman_ford`) must return

- ``dist`` bitwise equal to Dijkstra on ``ensemble.csr``, and
- ``parent`` equal to the canonical witness — the smallest-id
  in-neighbour ``u`` with ``dist[u] + w == dist[v]`` and
  ``dist[u] < dist[v]``, computed here from the CSR;

both identically at two slab sizes, on the serial, shared-memory
(forced dispatch) and simulated engines, under every weighting scheme.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.ensemble as ensemble_mod
import repro.parallel.api as api
from repro.core import SOSPTree, sosp_update
from repro.core.ensemble import build_ensemble, ensemble_bellman_ford
from repro.graph import road_like
from repro.graph.csr import CSRGraph
from repro.parallel import SerialEngine, SharedMemoryEngine, SimulatedEngine
from repro.sssp import dijkstra
from repro.types import NO_PARENT
from tests._mosp_reference import build_ensemble_reference
from tests.test_properties import graph_and_batches

ENGINES = {
    "serial": SerialEngine(),
    "shm": SharedMemoryEngine(threads=2, min_dispatch_items=1),
    "simulated": SimulatedEngine(threads=4),
}

PRIORITIES = {1: (1.0,), 2: (3.0, 1.0), 3: (3.0, 1.0, 7.0)}

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def teardown_module(module) -> None:
    ENGINES["shm"].close()


@contextmanager
def small_slabs():
    """Cut every slab superstep into slabs of at most two items, on
    one-thread engines and multi-thread ones alike."""
    with mock.patch.object(api, "MAX_SERIAL_SLAB_ITEMS", 2), \
            mock.patch.object(ensemble_mod, "MIN_SLAB_ITEMS", 1):
        yield


def canonical_parents(csr, dist):
    """The smallest-id tight in-neighbour of every vertex, by a loop
    over the CSR (``NO_PARENT`` where none is tight)."""
    parent = np.full(csr.n, NO_PARENT, dtype=np.int64)
    for v in range(csr.n):
        tight = [
            int(u) for u, w in zip(csr.in_neighbors(v), csr.in_weights(v))
            if dist[u] + w == dist[v] and dist[u] < dist[v]
        ]
        if tight:
            parent[v] = min(tight)
    return parent


def updated_trees(g, batches):
    """Per-objective trees built on ``g``, then carried through the
    batches by Algorithm 1 (so ties are broken the way updates do)."""
    k = g.num_objectives
    trees = [SOSPTree.build(g, 0, objective=i) for i in range(k)]
    snapshot = CSRGraph.from_digraph(g)
    for batch in batches:
        batch.apply_to(g)
        snapshot.apply_batch(batch)
        for t in trees:
            sosp_update(snapshot, t, batch)
    return trees


def check_steps_2_and_3(trees, engine, weighting):
    k = len(trees)
    prio = PRIORITIES[k] if weighting == "priority" else None
    ref = build_ensemble_reference(trees, weighting=weighting,
                                   priorities=prio)
    runs = []
    for slabs in (False, True):
        with small_slabs() if slabs else nullcontext():
            ens = build_ensemble(trees, engine=engine, weighting=weighting,
                                 priorities=prio)
            dist, parent = ensemble_bellman_ford(ens, 0, engine=engine)
        # Step 2: byte-identical to the per-vertex builder
        for attr in ("parents", "weights", "counts", "edge_src",
                     "edge_dst", "edge_count", "edge_weight"):
            a, b = getattr(ens, attr), getattr(ref, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
        for attr in ("indptr", "indices", "weights", "rev_indptr",
                     "rev_indices", "edge_perm"):
            assert (getattr(ens.csr, attr).tobytes()
                    == getattr(ref.csr, attr).tobytes()), attr
        runs.append((dist, parent))
    (dist, parent), (dist2, parent2) = runs
    # Step 3: the unique fixpoint and its canonical witness
    expect, _ = dijkstra(ref.csr, 0)
    assert dist.tobytes() == expect.tobytes()
    np.testing.assert_array_equal(parent, canonical_parents(ref.csr, expect))
    # ... whatever the slab sizes
    assert dist2.tobytes() == dist.tobytes()
    np.testing.assert_array_equal(parent2, parent)


@pytest.mark.parametrize("engine", list(ENGINES), ids=list(ENGINES))
class TestStepsTwoAndThree:
    @SETTINGS
    @given(data=st.data())
    def test_random_graphs(self, engine, data):
        k = data.draw(st.integers(1, 3))
        g, batches = data.draw(graph_and_batches(k=k, max_n=12,
                                                 max_batches=2))
        weighting = data.draw(st.sampled_from(["balanced", "priority",
                                               "unit"]))
        check_steps_2_and_3(updated_trees(g, batches), ENGINES[engine],
                            weighting)

    @pytest.mark.parametrize("weighting", ["balanced", "priority", "unit"])
    def test_road_grid(self, engine, weighting):
        """A few hundred vertices: frontiers wide enough for many slabs
        at both slab sizes."""
        g = road_like(400, k=3, seed=7)
        check_steps_2_and_3(updated_trees(g, []), ENGINES[engine],
                            weighting)


def test_unreached_vertices_have_no_parent():
    g = road_like(60, k=2, seed=3)
    g.add_vertices(4)  # isolated
    trees = updated_trees(g, [])
    dist, parent = ensemble_bellman_ford(build_ensemble(trees), 0)
    assert np.isinf(dist[-4:]).all()
    assert (parent[-4:] == NO_PARENT).all() and parent[0] == NO_PARENT
    assert dist.shape == parent.shape == (g.num_vertices,)
