"""Reference SSSP certifier: the per-vertex loops.

``repro.sssp.verify.certify_sssp`` as it was first written — the
parent-edge tightness / unreachable-consistency check visits one
vertex at a time, and acyclicity is a Python walk up every parent
chain.  The library now runs both as array passes; this module keeps
the loops as the oracle the differential test compares its verdict
against (``tests/test_verify_differential.py``).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import TreeInvariantError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.types import INF, NO_PARENT, FloatArray, IntArray


def certify_sssp_reference(
    graph: Union[DiGraph, CSRGraph],
    source: int,
    dist: FloatArray,
    parent: IntArray,
    objective: int = 0,
    rtol: float = 1e-9,
) -> None:
    """Raise :class:`TreeInvariantError` unless ``(dist, parent)`` is a
    correct SSSP solution for ``graph``/``source``/``objective``."""
    csr = CSRGraph.ensure(graph)
    n = csr.n
    dist = np.asarray(dist, dtype=float)
    parent = np.asarray(parent)
    if dist.shape != (n,) or parent.shape != (n,):
        raise TreeInvariantError(
            f"dist/parent shapes {dist.shape}/{parent.shape} != ({n},)"
        )
    if dist[source] != 0.0:
        raise TreeInvariantError(f"dist[source]={dist[source]}, expected 0")
    if parent[source] != NO_PARENT:
        raise TreeInvariantError(f"source has parent {parent[source]}")

    tol = rtol * (1.0 + np.max(dist[np.isfinite(dist)], initial=0.0))

    # 2. no relaxable edge (vectorised over all edges)
    if csr.m:
        w = csr.weights[:, objective]
        du = dist[csr.src]
        dv = dist[csr.indices]
        finite = np.isfinite(du)
        bad = finite & (dv > du + w + tol)
        if bad.any():
            e = int(np.nonzero(bad)[0][0])
            raise TreeInvariantError(
                f"edge ({csr.src[e]}, {csr.indices[e]}) relaxable: "
                f"dist[{csr.indices[e]}]={dv[e]} > {du[e]} + {w[e]}"
            )

    # 3/4. parent-edge tightness and unreachable consistency
    for v in range(n):
        p = int(parent[v])
        if dist[v] == INF:
            if p != NO_PARENT:
                raise TreeInvariantError(
                    f"unreachable vertex {v} has parent {p}"
                )
            continue
        if v == source:
            continue
        if p == NO_PARENT:
            raise TreeInvariantError(f"reachable vertex {v} has no parent")
        if not 0 <= p < n:
            raise TreeInvariantError(f"parent[{v}]={p} out of range")
        # tight parent edge must exist
        nbrs = csr.in_neighbors(v)
        ws = csr.in_weights(v, objective)
        mask = nbrs == p
        if not mask.any():
            raise TreeInvariantError(f"no edge ({p}, {v}) for parent pointer")
        gap = np.abs(dist[p] + ws[mask] - dist[v])
        if gap.min() > tol:
            raise TreeInvariantError(
                f"parent edge ({p}, {v}) not tight: "
                f"dist[{p}]+w={dist[p] + ws[mask].min()} vs dist[{v}]={dist[v]}"
            )

    # 5. acyclicity of parent pointers
    state = np.zeros(n, dtype=np.int8)  # 0 unvisited, 1 in progress, 2 done
    for v0 in range(n):
        if state[v0] or dist[v0] == INF:
            continue
        path = []
        v = v0
        while v != NO_PARENT and state[v] == 0:
            state[v] = 1
            path.append(v)
            v = int(parent[v])
        if v != NO_PARENT and state[v] == 1:
            raise TreeInvariantError(f"parent pointers cycle through {v}")
        for u in path:
            state[u] = 2
