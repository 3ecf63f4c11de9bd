"""Insertions into spare slots must reach a dispatched shm superstep.

An insertion writes spare slots of arrays that a
:class:`~repro.parallel.SharedMemoryEngine` may already hold as planted
copies (``csr.in_end``, ``csr.rev_indices``, ``csr.edge_perm``,
``csr.weights``).  The engine re-plants a copy only when its
fingerprint moved, so every slot write must move the stamp of every
array it wrote; otherwise a dispatched Step-2 superstep scans the old
reverse ranges and misses the new edge.

The scenario makes that miss visible: a batch inserts ``(a, b)`` next
to many edges that widen Step 2's frontier past one slab, where ``a``
only improves in Step 1 and ``b`` can only improve through ``(a, b)``
in Step 2, on a worker.  Distances must equal Dijkstra bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SOSPTree, sosp_update
from repro.core.kernels import MIN_SLAB_ITEMS
from repro.dynamic import ChangeBatch
from repro.graph import road_like
from repro.graph.csr import CSRGraph
from repro.parallel import SharedMemoryEngine
from repro.sssp import dijkstra


@pytest.fixture(scope="module")
def engine():
    e = SharedMemoryEngine(threads=2, min_dispatch_items=1)
    yield e
    e.close()


def _by_distance(tree):
    """The reachable vertices, nearest first."""
    reach = np.flatnonzero(np.isfinite(tree.dist))
    return reach[np.argsort(tree.dist[reach], kind="stable")]


def _shortcuts(tree, near, far):
    """One edge from each of ``near`` to each of ``far`` (zipped),
    each cutting its head's distance."""
    return [(int(u), int(v), float(tree.dist[v] - tree.dist[u]) / 2.0)
            for u, v in zip(near, far)]


def _apply(g, csr, tree, edges, engine):
    batch = ChangeBatch.insertions(edges)
    batch.apply_to(g)
    csr.apply_batch(batch)
    sosp_update(csr, tree, batch, engine=engine)
    dist, _ = dijkstra(g, tree.source)
    np.testing.assert_array_equal(tree.dist, dist)


def test_spare_slot_insert_reaches_dispatched_superstep(engine):
    g = road_like(3000, k=1, seed=1)
    tree = SOSPTree.build(g, 0)
    csr = CSRGraph.from_digraph(g)
    order = _by_distance(tree)
    width = 3 * MIN_SLAB_ITEMS
    # warm-up: relays the slack-free freeze out and plants the arrays
    _apply(g, csr, tree,
           _shortcuts(tree, order[1:width], order[-width:-1]), engine)
    slots, indices = csr.m, csr.indices
    topology, weights = csr.topology_stamp, csr.weights_stamp

    order = _by_distance(tree)
    a, b = int(order[-1]), int(order[-2])
    assert tree.dist[b] <= tree.dist[a]
    near, far = order[width:2 * width], order[-2 * width:-width]
    edges = _shortcuts(tree, near, far)
    edges += [(0, a, 1.0), (a, b, 1.0)]
    dispatched = engine.dispatched_supersteps
    old_b = tree.dist[b]
    _apply(g, csr, tree, edges, engine)
    # the batch filled spare slots: no relayout replaced an array
    assert csr.m == slots and csr.indices is indices
    assert csr.topology_stamp != topology
    assert csr.weights_stamp != weights
    assert engine.dispatched_supersteps > dispatched
    assert tree.dist[b] == 2.0 < old_b and tree.parent[b] == a
