"""Certification of shortest-path solutions.

A ``(dist, parent)`` pair is a correct SSSP solution iff

1. ``dist[source] == 0`` and ``parent[source] == -1``;
2. no edge is *relaxable*: for every edge ``(u, v)``,
   ``dist[v] <= dist[u] + w(u, v)`` (up to floating tolerance);
3. every reachable non-source vertex has a parent edge that is *tight*:
   ``dist[v] == dist[parent[v]] + w(parent[v], v)`` for some live edge;
4. unreachable vertices (``dist == inf``) have no parent;
5. the parent pointers are acyclic (they form a tree rooted at the
   source).

Conditions 2+3 together certify optimality — this is the standard
LP-duality argument, checked in O(n + m).  The incremental algorithms
are validated against this certificate after every batch in the test
suite, independently of any reference distances.  Every check is an
array pass over all vertices or all edges; the per-vertex loops it
replaced live on as the oracle in ``tests/_verify_reference.py``.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import TreeInvariantError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.types import INF, NO_PARENT, BoolArray, FloatArray, IntArray

__all__ = ["certify_sssp"]

_EPS = 1e-9


def certify_sssp(
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

    # 3/4. unreachable consistency and parent-edge tightness, as
    # masks over all vertices (NaN distances count as reachable)
    reach = dist != INF
    has_parent = parent != NO_PARENT
    needs = reach.copy()  # reachable non-source: must hang off a parent
    needs[source] = False
    _fail_at(~reach & has_parent, parent,
             "unreachable vertex {v} has parent {p}")
    _fail_at(needs & ~has_parent, parent,
             "reachable vertex {v} has no parent")
    _fail_at(needs & ((parent < 0) | (parent >= n)), parent,
             "parent[{v}]={p} out of range")
    # every vertex with a parent is now a reachable non-source one, so
    # the edges (parent[v], v) are exactly those whose tail is their
    # head's parent
    w = csr.weights[:, objective]
    cand = parent[csr.indices] == csr.src
    heads = csr.indices[cand]
    covered = np.zeros(n, dtype=bool)
    covered[heads] = True
    _fail_at(needs & ~covered, parent,
             "no edge ({p}, {v}) for parent pointer")
    gap = np.abs(dist[csr.src[cand]] + w[cand] - dist[heads])
    covered[:] = False
    covered[heads[~(gap > tol)]] = True  # not <= tol: a NaN gap passes
    _fail_at(needs & ~covered, parent, "parent edge ({p}, {v}) not tight")

    # 5. acyclicity by pointer jumping: roots point at themselves, and
    # bit_length(n) squarings climb >= n steps up every chain, so a
    # vertex that has not landed on a root hangs off a cycle
    anc = np.where(has_parent, parent, np.arange(n))
    for _ in range(n.bit_length()):
        anc = anc[anc]
    _fail_at(has_parent[anc], parent, "parent pointers of {v} cycle")


def _fail_at(bad: BoolArray, parent: IntArray, msg: str) -> None:
    """Raise ``msg`` for the lowest vertex flagged in ``bad``."""
    if bad.any():
        v = int(np.flatnonzero(bad)[0])
        raise TreeInvariantError(msg.format(v=v, p=int(parent[v])))
