"""Binary-heap Dijkstra.

The reference SSSP used to build initial SOSP trees and as the
correctness oracle for every incremental update in the test suite.
Lazy deletion (a popped entry is skipped when its distance is stale)
keeps the implementation at O((n + m) log n) with Python's ``heapq``.
"""

from __future__ import annotations

import heapq
from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import VertexError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.types import DIST_DTYPE, INF, NO_PARENT, VERTEX_DTYPE, FloatArray, IntArray

__all__ = ["dijkstra"]


def dijkstra(
    graph: Union[DiGraph, CSRGraph],
    source: int,
    objective: int = 0,
    meter=None,
) -> Tuple[FloatArray, IntArray]:
    """Single-source shortest paths for one objective.

    Parameters
    ----------
    graph:
        A :class:`DiGraph` or :class:`CSRGraph`; only the ``objective``
        component of each weight vector is read.
    source:
        Source vertex.
    objective:
        Which objective's weights to minimise (default 0).
    meter:
        Optional :class:`~repro.parallel.cost.WorkMeter`; charged one
        unit per relaxed edge.

    Returns
    -------
    (dist, parent):
        ``dist[v]`` is the shortest ``objective``-distance from
        ``source`` (``inf`` if unreachable); ``parent[v]`` is ``v``'s
        predecessor on one shortest path (``-1`` for the source and
        unreachable vertices).

    Examples
    --------
    >>> from repro.graph import DiGraph
    >>> g = DiGraph.from_edge_list(3, [(0, 1, 5.0), (1, 2, 1.0), (0, 2, 9.0)])
    >>> dist, parent = dijkstra(g, 0)
    >>> dist.tolist()
    [0.0, 5.0, 6.0]
    >>> parent.tolist()
    [-1, 0, 1]
    """
    csr = CSRGraph.ensure(graph)
    n = csr.n
    if not 0 <= source < n:
        raise VertexError(source, n, "dijkstra source")

    dist = np.full(n, INF, dtype=DIST_DTYPE)
    parent = np.full(n, NO_PARENT, dtype=VERTEX_DTYPE)
    dist[source] = 0.0
    relaxed = 0

    indptr, indices = csr.indptr, csr.indices
    weights = csr.weights[:, objective]

    heap = [(0.0, source)]
    settled = np.zeros(n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        lo, hi = indptr[u], indptr[u + 1]
        for i in range(lo, hi):
            v = indices[i]
            nd = d + weights[i]
            relaxed += 1
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    if meter is not None:
        meter.add(relaxed)
    return dist, parent
