"""Reference Step-2 frontier bookkeeping: the sort-based gather.

The first vectorised ``propagate_csr`` deduplicated each superstep's
frontier with ``np.unique``.  The library now uses a dense hit mask
(``repro.core.affected.gather_unique_neighbors_csr``); this module
keeps a sort-based version, built from the per-vertex
``CSRGraph.out_neighbors`` queries, as the oracle the differential
suite (``tests/test_frontier_differential.py``) compares it against
bitwise.

It also keeps :func:`frontier_bellman_ford_csr`, the from-scratch
solve through ``propagate_csr`` that Algorithm 2's Step 3 ran over the
combined graph's CSR before it ran on the slot matrices
(``repro.core.ensemble.ensemble_bellman_ford``): tests use it to drive
``propagate_csr`` over whole graphs, and the SSSP baseline benchmark
times it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.kernels import propagate_csr
from repro.graph.csr import CSRGraph
from repro.parallel.api import Engine
from repro.types import (
    DIST_DTYPE,
    INF,
    NO_PARENT,
    VERTEX_DTYPE,
    FloatArray,
    IntArray,
)


def gather_unique_neighbors_csr_reference(
    csr: CSRGraph, affected: IntArray
) -> IntArray:
    """Unique out-neighbours of ``affected``, one
    :meth:`CSRGraph.out_neighbors` query per id, deduplicated by
    ``np.unique``.  Returns a sorted int64 array."""
    heads = [csr.out_neighbors(int(u)) for u in np.asarray(affected)]
    if not heads:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(heads)).astype(np.int64)


def frontier_bellman_ford_csr(
    graph: CSRGraph,
    source: int,
    objective: int = 0,
    engine: Optional[Engine] = None,
) -> Tuple[FloatArray, IntArray]:
    """Frontier Bellman-Ford expressed through the Step-2 kernel.

    Initialising ``dist`` to ``inf`` everywhere but the source and
    seeding the affected set with the source alone makes
    :func:`propagate_csr` *be* a from-scratch SSSP solve.  Returns
    ``(dist, parent)`` in the :func:`~repro.sssp.dijkstra.dijkstra`
    convention.

    ``dist`` is exactly the fixpoint every other SSSP kernel computes.
    ``parent`` is one optimal witness per vertex; when several parents
    achieve the same distance this pull-based kernel picks the first in
    reverse-CSR order, whereas the push-based
    :func:`~repro.sssp.bellman_ford.frontier_bellman_ford` keeps the
    first arrival — both valid, not always the same vertex.
    """
    n = graph.n
    dist = np.full(n, INF, dtype=DIST_DTYPE)
    parent = np.full(n, NO_PARENT, dtype=VERTEX_DTYPE)
    marked = np.zeros(n, dtype=np.int8)
    dist[source] = 0.0
    marked[source] = 1
    propagate_csr(
        graph, dist, parent, marked,
        np.asarray([source], dtype=np.int64),
        objective=objective, engine=engine,
    )
    return dist, parent
