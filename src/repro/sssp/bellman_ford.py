"""Bellman-Ford from scratch: the recompute baselines and test references.

Algorithm 2 Step 3 of the paper computes an SOSP on the combined graph
with "a parallel Bellman-Ford algorithm implementation"; in this
package that kernel is :func:`repro.core.ensemble.ensemble_bellman_ford`
on the ensemble's slot matrices.  The general-graph versions here are:

- :func:`bellman_ford` — whole-graph numpy rounds; each round relaxes
  all ``m`` edges with ``np.minimum.at`` (edge-centric, exactly one
  pass = one parallel superstep morally).
- :func:`frontier_bellman_ford` — queue-based (SPFA-style) rounds over
  an :class:`~repro.parallel.api.Engine` that re-expand only the
  vertices whose distance changed.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import VertexError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.parallel.api import Engine, resolve_engine
from repro.types import DIST_DTYPE, INF, NO_PARENT, VERTEX_DTYPE, FloatArray, IntArray

__all__ = ["bellman_ford", "frontier_bellman_ford"]


def _to_csr(graph: Union[DiGraph, CSRGraph]) -> CSRGraph:
    return CSRGraph.ensure(graph)


def bellman_ford(
    graph: Union[DiGraph, CSRGraph],
    source: int,
    objective: int = 0,
    meter=None,
) -> Tuple[FloatArray, IntArray]:
    """Vectorised Bellman-Ford for one objective.

    Runs full edge-relaxation rounds until a fixpoint (at most ``n-1``
    rounds for non-negative weights).  Returns ``(dist, parent)`` in
    the same convention as :func:`~repro.sssp.dijkstra.dijkstra`.
    """
    csr = _to_csr(graph)
    n = csr.n
    if not 0 <= source < n:
        raise VertexError(source, n, "bellman_ford source")
    src, dst = csr.src, csr.indices
    w = csr.weights[:, objective]

    dist = np.full(n, INF, dtype=DIST_DTYPE)
    parent = np.full(n, NO_PARENT, dtype=VERTEX_DTYPE)
    dist[source] = 0.0
    scanned = 0
    for _ in range(max(1, n - 1)):
        if csr.m == 0:
            break
        scanned += csr.m
        cand = dist[src] + w
        new_dist = dist.copy()
        np.minimum.at(new_dist, dst, cand)
        changed = new_dist < dist
        if not changed.any():
            break
        # recover parents: an edge whose candidate equals the new
        # minimum of an improved destination is a witness
        improved_edges = np.nonzero(cand == new_dist[dst])[0]
        improved_edges = improved_edges[changed[dst[improved_edges]]]
        parent[dst[improved_edges]] = src[improved_edges]
        dist = new_dist
    if meter is not None:
        meter.add(scanned)
    return dist, parent


def frontier_bellman_ford(
    graph: Union[DiGraph, CSRGraph],
    source: int,
    objective: int = 0,
    engine: Optional[Engine] = None,
) -> Tuple[FloatArray, IntArray]:
    """Queue/frontier-based Bellman-Ford (SPFA-style), engine-parallel.

    The work-efficient variant matching the two-queue GPU
    implementations the paper cites ([1]): only vertices whose distance
    changed are re-expanded, so total work is proportional to edges
    *touched* rather than rounds × m.  Each superstep expands the
    current frontier in parallel (one task per frontier vertex, work =
    its out-degree) and merges proposals sequentially per destination —
    the same vertex-ownership pattern as Algorithm 1 Step 2.
    """
    csr = _to_csr(graph)
    n = csr.n
    if not 0 <= source < n:
        raise VertexError(source, n, "frontier_bellman_ford source")
    eng = resolve_engine(engine)

    dist = np.full(n, INF, dtype=DIST_DTYPE)
    parent = np.full(n, NO_PARENT, dtype=VERTEX_DTYPE)
    dist[source] = 0.0
    if csr.m == 0:
        return dist, parent

    indptr, indices = csr.indptr, csr.indices
    w = csr.weights[:, objective]
    frontier = [source]

    while frontier:
        def expand(u: int):
            lo, hi = indptr[u], indptr[u + 1]
            cand = dist[u] + w[lo:hi]
            better = cand < dist[indices[lo:hi]]
            idx = np.nonzero(better)[0]
            return idx + lo, cand[better]

        parts = eng.parallel_for(
            frontier, expand,
            work_fn=lambda u, _r: max(1, int(indptr[u + 1] - indptr[u])),
        )
        improved = set()
        for rows, cand in parts:
            for j in range(len(rows)):
                e = int(rows[j])
                v = int(indices[e])
                nd = float(cand[j])
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = int(csr.src[e])
                    improved.add(v)
            eng.charge(len(rows))
        frontier = sorted(improved)
    return dist, parent
