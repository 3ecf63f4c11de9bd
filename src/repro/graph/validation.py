"""Structural validation of graphs and weight matrices.

These checks are the preconditions of every algorithm in the package:
finite non-negative weights, consistent objective arity, in/out
adjacency that mirror each other.  They run in O(n + m) and are cheap
enough to call in tests and debug builds; library code trusts its
inputs after construction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError, WeightError
from repro.graph.csr import CSRGraph, gather_ranges
from repro.graph.digraph import DiGraph

__all__ = ["validate_digraph", "validate_csr", "check_weights"]


def check_weights(weights: np.ndarray, k: int) -> None:
    """Raise :class:`WeightError` unless ``weights`` is a valid
    ``(m, k)`` matrix of finite non-negative floats."""
    w = np.asarray(weights)
    if w.ndim != 2 or w.shape[1] != k:
        raise WeightError(
            f"weights must have shape (m, {k}); got {w.shape}"
        )
    if w.size and not np.all(np.isfinite(w)):
        raise WeightError("weights contain non-finite values")
    if w.size and np.any(w < 0):
        raise WeightError("weights contain negative values")


def validate_digraph(g: DiGraph) -> None:
    """Full structural audit of a :class:`DiGraph`.

    Checks endpoint ranges, in/out adjacency consistency (each live
    edge appears exactly once in both lists), live-edge count, and
    weight validity.  Raises :class:`GraphError`/:class:`WeightError`
    on the first violation.
    """
    n = g.num_vertices
    seen_out = 0
    for u in range(n):
        for v, eid in g.out_edges(u):
            su, sv = g.edge_endpoints(eid)
            if su != u or sv != v:
                raise GraphError(
                    f"out adjacency of {u} lists edge {eid} with endpoints "
                    f"({su}, {sv})"
                )
            seen_out += 1
    seen_in = 0
    for v in range(n):
        for u, eid in g.in_edges(v):
            su, sv = g.edge_endpoints(eid)
            if su != u or sv != v:
                raise GraphError(
                    f"in adjacency of {v} lists edge {eid} with endpoints "
                    f"({su}, {sv})"
                )
            seen_in += 1
    if seen_out != g.num_edges or seen_in != g.num_edges:
        raise GraphError(
            f"adjacency/live-edge mismatch: out={seen_out} in={seen_in} "
            f"m={g.num_edges}"
        )
    _, _, w = g.edge_arrays()
    check_weights(w, g.num_objectives)


def validate_csr(csr: CSRGraph) -> None:
    """Audit a :class:`CSRGraph`'s slot layout.

    Regions tile the slot arrays in vertex order and each live range
    sits inside its region; forward slots are owned by their region's
    vertex; forward and reverse live ranges hold the same edge
    multiset; every live reverse slot names, through ``edge_perm``, a
    distinct live forward slot with the same endpoints; live weights
    are valid and tombstones all-``inf``; the edge counts agree.
    """
    n = csr.n
    for name, ptr, end, slots in (
        ("forward", csr.indptr, csr.out_end, csr.indices.shape[0]),
        ("reverse", csr.rev_indptr, csr.in_end, csr.rev_indices.shape[0]),
    ):
        if ptr.shape != (n + 1,) or end.shape != (n,):
            raise GraphError(f"{name} region arrays have the wrong shape")
        if ptr[0] != 0 or ptr[-1] != slots:
            raise GraphError(f"{name} regions do not tile the slots")
        if np.any(ptr[:-1] > end) or np.any(end > ptr[1:]):
            raise GraphError(f"{name} live range outside its region")
    if csr.m != csr.indices.shape[0] or csr.weights.shape != (csr.m, csr.k) \
            or csr.src.shape != (csr.m,) \
            or csr.edge_perm.shape != csr.rev_indices.shape:
        raise GraphError("slot arrays disagree on their lengths")
    owner = np.repeat(np.arange(n), np.diff(csr.indptr))
    if not np.array_equal(csr.src, owner):
        raise GraphError("forward slot owned by another vertex")
    fwd, _ = gather_ranges(csr.indptr[:-1], csr.out_end)
    rev, rseg = gather_ranges(csr.rev_indptr[:-1], csr.in_end)
    heads = csr.indices[fwd]
    tails = csr.rev_indices[rev]
    if np.any((heads < 0) | (heads >= n)) or np.any((tails < 0) | (tails >= n)):
        raise GraphError("live slot names a vertex out of range")
    # forward and reverse live ranges hold the same edge multiset
    rev_heads = np.repeat(np.arange(n), np.diff(rseg))
    if not np.array_equal(np.sort(csr.src[fwd] * n + heads),
                          np.sort(tails * n + rev_heads)):
        raise GraphError("forward and reverse ranges disagree on edges")
    # ... and edge_perm pairs them up one to one
    perm = csr.edge_perm[rev]
    live = np.zeros(csr.m, dtype=bool)
    live[fwd] = True
    if np.any((perm < 0) | (perm >= csr.m)) or not live[perm].all():
        raise GraphError("edge_perm names a slot outside the live ranges")
    if np.unique(perm).size != perm.size:
        raise GraphError("edge_perm names one forward slot twice")
    if np.any(csr.src[perm] != tails) or np.any(csr.indices[perm] != rev_heads):
        raise GraphError("edge_perm maps to an edge with other endpoints")
    w = csr.weights[fwd]
    dead = ~np.isfinite(w[:, 0])
    if not np.isinf(w[dead]).all():
        raise GraphError("tombstone with a finite weight component")
    check_weights(w[~dead], csr.k)
    if int(dead.sum()) != csr.num_dead or fwd.size - csr.num_dead != csr.num_edges:
        raise GraphError("live and tombstoned slots disagree with the counts")
