"""Reference Step-2 frontier bookkeeping: the sort-based versions.

The first vectorised ``propagate_csr`` deduplicated each superstep's
frontier with ``np.unique`` and grouped the snapshot's COO-tail edges
by frontier position with a ``searchsorted`` over the whole tail.  The
library now uses dense masks for both
(``repro.core.affected.gather_unique_neighbors_csr`` and
``repro.core.kernels.group_tail_by_position``); this module keeps the
sort-based versions as the oracle the differential suite
(``tests/test_frontier_differential.py``) compares them against
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
    """Unique out-neighbours of ``affected``, deduplicated by
    ``np.unique``.  Returns a sorted int64 array."""
    affected = np.asarray(affected, dtype=np.int64)
    if affected.size == 0:
        return np.empty(0, dtype=np.int64)
    starts = csr.indptr[affected].astype(np.int64)
    ends = csr.indptr[affected + 1].astype(np.int64)
    deg = ends - starts
    total = int(deg.sum())
    if total:
        offsets = np.concatenate(([0], np.cumsum(deg)[:-1]))
        idx = np.arange(total, dtype=np.int64) + np.repeat(
            starts - offsets, deg
        )
        base = csr.indices[idx]
    else:
        base = np.empty(0, dtype=np.int64)
    if csr.num_tail_edges:
        hit = np.isin(csr.tail_src, affected)
        base = np.concatenate((base, csr.tail_dst[hit]))
    return np.unique(base).astype(np.int64)


def group_tail_by_position_reference(
    csr: CSRGraph, frontier: IntArray, objective: int = 0
) -> Tuple[IntArray, IntArray, FloatArray]:
    """Tail edges landing on the sorted ``frontier``, grouped by
    frontier position through a ``searchsorted`` over the whole tail:
    ``(t_seg, t_src, t_w)``."""
    if not csr.num_tail_edges or frontier.size == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=DIST_DTYPE),
        )
    pos = np.searchsorted(frontier, csr.tail_dst)
    pos_c = np.minimum(pos, frontier.size - 1)
    sel = frontier[pos_c] == csr.tail_dst
    t_seg = pos_c[sel]
    t_order = np.argsort(t_seg, kind="stable")
    t_seg = t_seg[t_order]
    t_src = csr.tail_src[sel][t_order]
    t_w = csr.tail_weights[sel, objective][t_order]
    return t_seg, t_src, t_w


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
