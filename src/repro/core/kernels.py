"""NumPy-vectorised CSR kernels for the Algorithm 1/2 hot loops.

The paper's per-vertex tasks relax edges one at a time — in Python,
one iterator step per edge of a :class:`~repro.graph.digraph.DiGraph`.
This module re-expresses Step 1 (batch group relaxation) and Step 2
(affected-frontier propagation) as *batched array kernels* over a
:class:`~repro.graph.csr.CSRGraph` snapshot:

- the in-edges of every frontier vertex are gathered with one
  concatenated reverse-CSR slice (:func:`gather_ranges`),
- candidate distances are computed for the whole frontier in one
  ``dist[preds] + w`` expression, masked by the *marked* predecessor
  flag,
- the per-vertex minimum and its witness predecessor come from a
  ``np.minimum.reduceat``-style segmented reduction
  (:func:`segmented_argmin`).

Parallel structure is preserved exactly: each engine superstep covers
the frontier with contiguous *slabs*
(:func:`~repro.parallel.api.parallel_for_slabs`), and each destination
vertex belongs to exactly one slab — the same vertex-ownership
guarantee the paper's per-vertex tasks give, just at array granularity.
A maintained :class:`CSRGraph` is read in place: every vertex's
in-edges, appended ones included, are one live range of its reverse
region, so each slab does one gather and one segmented reduction and
the kernels survive dynamic batches without an O(|E|) re-freeze.

They are the only update path.  The differential oracle in
``tests/test_kernels_differential.py`` certifies them against the
pointer-chasing reference kept in ``tests/_sosp_reference.py`` and
against a full Dijkstra recompute.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # circular at runtime: sosp_update imports kernels
    from repro.core.sosp_update import UpdateStats

from repro.core.affected import gather_unique_neighbors_csr
from repro.graph.csr import CSRGraph, gather_ranges
from repro.parallel.api import (
    Engine,
    SlabTask,
    parallel_for_slabs,
    resolve_engine,
)
from repro.parallel.atomics import OwnershipTracker, resolve_tracker
from repro.types import DIST_DTYPE, INF, NO_PARENT, FloatArray, IntArray

__all__ = [
    "gather_ranges",
    "segmented_argmin",
    "gather_in_edges_csr",
    "relax_batch_groups",
    "propagate_csr",
]

#: Import ref of the Step-2 slab kernel, resolved inside shared-memory
#: workers.  A module constant (rather than an inline literal) so the
#: crash-recovery tests can monkeypatch in a kernel that dies
#: mid-superstep while delegating to the real one on the master.
_PROPAGATE_SLAB_REF = "repro.core.kernels:_propagate_relax_slab"

#: Minimum frontier vertices (or Step-1 groups) per engine slab — below
#: this, per-task dispatch overhead dwarfs the vectorised body.
MIN_SLAB_ITEMS = 64


def _record_slab_writes(
    tracker: Optional[OwnershipTracker], results: Any
) -> None:
    """Register each slab's improved vertices with the ownership tracker.

    Recording happens on the master *after* the superstep barrier (the
    returned ``vv`` arrays identify every write) so the §3.1
    single-writer assertion works identically whether the slab ran in
    this process or in a shared-memory worker that cannot see the
    tracker.
    """
    if tracker is not None:
        for slab_idx, (vv, _) in enumerate(results):
            for v in vv:
                tracker.record_write(int(v), slab_idx)


def _relax_groups_slab(
    arrays: Mapping[str, np.ndarray],
    params: Mapping[str, Any],
    lo: int,
    hi: int,
) -> Tuple[IntArray, int]:
    """Slab kernel for Step 0/1: relax destination groups ``[lo, hi)``.

    All state arrives through ``arrays`` (the slab-kernel signature),
    so the same function body runs on the caller's arrays and, in a
    dispatched shared-memory superstep, on planted copies.  Each
    destination group lives in exactly one slab, making the in-place
    ``dist``/``parent``/``marked`` writes race-free.
    """
    seg_starts = arrays["step1.seg_starts"]
    s_src = arrays["step1.s_src"]
    s_w = arrays["step1.s_w"]
    groups = arrays["step1.groups"]
    dist = arrays["sosp.dist"]
    parent = arrays["sosp.parent"]
    marked = arrays["sosp.marked"]
    a, bnd = int(seg_starts[lo]), int(seg_starts[hi])
    cand = dist[s_src[a:bnd]] + s_w[a:bnd]
    mins, arg = segmented_argmin(cand, seg_starts[lo : hi + 1] - a)
    vs = groups[lo:hi]
    improved = mins < dist[vs]
    vv = vs[improved]
    if len(vv):
        dist[vv] = mins[improved]
        parent[vv] = s_src[a:bnd][arg[improved]]
        marked[vv] = 1
    return np.asarray(vv, dtype=np.int64), bnd - a


#: The arrays both slab kernels mutate — the copy-back set of a
#: dispatched superstep (everything else in their tasks is read-only).
_SOSP_WRITES: Tuple[str, ...] = (
    "sosp.dist",
    "sosp.parent",
    "sosp.marked",
)


def _propagate_relax_slab(
    arrays: Mapping[str, np.ndarray],
    params: Mapping[str, Any],
    lo: int,
    hi: int,
) -> Tuple[IntArray, int]:
    """Slab kernel for Step 2: relax frontier positions ``[lo, hi)``.

    Pull-based: gathers every *marked* predecessor of its frontier
    vertices from their live reverse ranges, reduces with
    :func:`segmented_argmin`, and applies improved distances in place.
    Frontier positions partition across slabs, so writes are
    single-owner by construction.
    """
    frontier = arrays["step2.frontier"]
    rev_indptr = arrays["csr.rev_indptr"]
    in_end = arrays["csr.in_end"]
    rev_indices = arrays["csr.rev_indices"]
    edge_perm = arrays["csr.edge_perm"]
    w_col = arrays["csr.weights"][:, int(params["objective"])]
    dist = arrays["sosp.dist"]
    parent = arrays["sosp.parent"]
    marked = arrays["sosp.marked"]

    f = frontier[lo:hi]
    idx, seg_starts = gather_ranges(rev_indptr[f], in_end[f])
    scanned = int(idx.size)
    if idx.size:
        preds = rev_indices[idx].astype(np.int64)
        cand = np.where(
            marked[preds] == 1,
            dist[preds] + w_col[edge_perm[idx]],
            INF,
        )
        mins, arg = segmented_argmin(cand, seg_starts)
        best_u = np.where(arg >= 0, preds[np.maximum(arg, 0)], NO_PARENT)
    else:
        mins = np.full(len(f), INF, dtype=DIST_DTYPE)
        best_u = np.full(len(f), NO_PARENT, dtype=np.int64)
    improved = mins < dist[f]
    vv = f[improved]
    if len(vv):
        dist[vv] = mins[improved]
        parent[vv] = best_u[improved]
        marked[vv] = 1
    return np.asarray(vv, dtype=np.int64), scanned


def segmented_argmin(
    values: FloatArray, seg_starts: IntArray
) -> Tuple[FloatArray, IntArray]:
    """Per-segment minimum and first-witness position.

    ``seg_starts`` bounds ``s`` contiguous segments of ``values`` (the
    layout :func:`gather_ranges` produces).  Returns ``(mins, arg)``
    where ``mins[i]`` is the segment minimum (``inf`` for empty
    segments) and ``arg[i]`` the global index into ``values`` of its
    first occurrence (``-1`` for empty segments).  Callers must gate on
    ``mins`` before trusting ``arg`` — a segment whose candidates are
    all ``inf`` reports an arbitrary inf witness.
    """
    s = len(seg_starts) - 1
    mins = np.full(s, INF, dtype=DIST_DTYPE)
    arg = np.full(s, -1, dtype=np.int64)
    if s == 0 or values.size == 0:
        return mins, arg
    nonempty = seg_starts[:-1] < seg_starts[1:]
    if not nonempty.any():
        return mins, arg
    # reduceat over the non-empty starts only: segments are contiguous,
    # so each non-empty segment runs exactly to the next non-empty
    # start (empty segments contribute no positions in between), and
    # the last one runs to the end of ``values``.  Feeding reduceat the
    # raw ``seg_starts[:-1]`` instead would be wrong twice over: an
    # empty trailing start equals ``values.size`` (out of range), and
    # clamping it truncates the *previous* segment's span.
    mins[nonempty] = np.minimum.reduceat(values, seg_starts[:-1][nonempty])
    seg_id = np.repeat(np.arange(s), np.diff(seg_starts))
    pos = np.flatnonzero(values == mins[seg_id])
    # seg_id[pos] is sorted, and every non-empty segment attains its
    # minimum, so searchsorted lands on each segment's first witness
    first = np.minimum(
        np.searchsorted(seg_id[pos], np.arange(s)), len(pos) - 1
    )
    arg[nonempty] = pos[first[nonempty]]
    return mins, arg


def gather_in_edges_csr(
    csr: CSRGraph, vertices: IntArray, objective: int = 0
) -> Tuple[IntArray, IntArray, FloatArray]:
    """All in-edges of ``vertices`` as ``(src, dst, weight)`` arrays.

    One concatenated gather over the live reverse ranges
    (:func:`gather_ranges`) — the vectorised gather
    :func:`~repro.core.sosp_update.sosp_update`'s Step 1 uses to seed
    invalidated vertices against their entire connection boundary.
    Tombstoned rows come back with
    ``inf`` weights, which every downstream min-relaxation ignores.
    Order is deterministic: per vertex, its live in-edge order.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=DIST_DTYPE),
        )
    idx, seg_starts = gather_ranges(
        csr.rev_indptr[vertices], csr.in_end[vertices]
    )
    src = csr.rev_indices[idx].astype(np.int64)
    dst = np.repeat(vertices, np.diff(seg_starts))
    w = csr.weights[csr.edge_perm[idx], objective]
    return src, dst, w


def relax_batch_groups(
    src: IntArray,
    dst: IntArray,
    w: FloatArray,
    dist: FloatArray,
    parent: IntArray,
    marked: IntArray,
    engine: Optional[Engine] = None,
) -> Tuple[IntArray, int]:
    """Vectorised Step 0 + Step 1: group the inserted edges by
    destination and relax each group to its minimum in one pass.

    The grouping is a stable argsort over ``dst`` (the array twin of
    the paper's hash grouping); each engine slab then owns a contiguous
    range of destination groups, computes every group's best candidate
    with one :func:`segmented_argmin`, and writes improved
    ``dist``/``parent``/``marked`` entries — race-free because a
    destination lives in exactly one slab.

    Returns ``(affected, scanned)``: the sorted array of improved
    vertices and the number of edge relaxations performed.
    """
    eng = resolve_engine(engine)
    tracker = resolve_tracker(eng)
    b = len(src)
    if b == 0:
        return np.empty(0, dtype=np.int64), 0
    order = np.argsort(dst, kind="stable")
    s_src = np.asarray(src, dtype=np.int64)[order]
    s_dst = np.asarray(dst, dtype=np.int64)[order]
    s_w = np.asarray(w, dtype=DIST_DTYPE)[order]
    cuts = np.flatnonzero(np.diff(s_dst)) + 1
    seg_starts = np.concatenate(([0], cuts, [b]))
    groups = s_dst[seg_starts[:-1]]
    nseg = len(groups)

    task = SlabTask(
        ref="repro.core.kernels:_relax_groups_slab",
        arrays={
            "step1.seg_starts": seg_starts,
            "step1.s_src": s_src,
            "step1.s_w": s_w,
            "step1.groups": groups,
            "sosp.dist": dist,
            "sosp.parent": parent,
            "sosp.marked": marked,
        },
        writes=_SOSP_WRITES,
    )
    results = parallel_for_slabs(
        eng, nseg, task,
        work_fn=lambda span, r: max(1, r[1]),
        min_chunk=MIN_SLAB_ITEMS,
    )
    _record_slab_writes(tracker, results)
    affected = (
        np.concatenate([r[0] for r in results])
        if results else np.empty(0, dtype=np.int64)
    )
    return affected, int(sum(r[1] for r in results))


def propagate_csr(
    csr: CSRGraph,
    dist: FloatArray,
    parent: IntArray,
    marked: IntArray,
    affected: IntArray,
    objective: int = 0,
    engine: Optional[Engine] = None,
    stats: Optional["UpdateStats"] = None,
) -> None:
    """Vectorised Step 2: propagate the update through the affected
    subgraph until the frontier is empty.

    Per iteration: gather the unique out-neighbours ``N`` of the
    affected set (:func:`gather_unique_neighbors_csr`), then cover
    ``N`` with engine slabs; each slab pulls all *marked* predecessors
    of its frontier vertices from their live reverse ranges in one
    gather, reduces per vertex with :func:`segmented_argmin`, and
    applies the improved distances.  Mutates
    ``dist``/``parent``/``marked`` in place.

    ``stats`` (duck-typed :class:`~repro.core.sosp_update.UpdateStats`)
    is updated when given; a checked engine's tracker gets one owner
    (slab) per improved vertex.
    """
    eng = resolve_engine(engine)
    tracker = resolve_tracker(eng)
    affected = np.asarray(affected, dtype=np.int64)

    params = {"objective": int(objective)}
    # the graph arrays are fingerprinted with the snapshot's stamps:
    # an insertion moves both, a deletion or re-weight only the
    # weights', so a dispatch re-plants exactly what a batch wrote
    topo_fp = csr.topology_stamp
    fingerprints = {
        "csr.rev_indptr": topo_fp,
        "csr.in_end": topo_fp,
        "csr.rev_indices": topo_fp,
        "csr.edge_perm": topo_fp,
        "csr.weights": csr.weights_stamp,
    }

    # dense per-call scratch: ``improved`` collects the distinct
    # affected vertices, so no superstep sorts, hashes or feeds a
    # Python set
    improved = np.zeros(csr.n, dtype=bool)
    try:
        while affected.size:
            if tracker is not None:
                tracker.next_superstep()
            frontier = gather_unique_neighbors_csr(csr, affected)
            if stats is not None:
                stats.frontier_sizes.append(int(frontier.size))
                stats.iterations += 1
            if frontier.size == 0:
                break

            task = SlabTask(
                ref=_PROPAGATE_SLAB_REF,
                arrays={
                    "csr.rev_indptr": csr.rev_indptr,
                    "csr.in_end": csr.in_end,
                    "csr.rev_indices": csr.rev_indices,
                    "csr.edge_perm": csr.edge_perm,
                    "csr.weights": csr.weights,
                    "sosp.dist": dist,
                    "sosp.parent": parent,
                    "sosp.marked": marked,
                    "step2.frontier": frontier,
                },
                params=params,
                writes=_SOSP_WRITES,
                fingerprints=fingerprints,
            )
            results = parallel_for_slabs(
                eng, int(frontier.size), task,
                work_fn=lambda span, r: max(1, r[1]),
                min_chunk=MIN_SLAB_ITEMS,
            )
            _record_slab_writes(tracker, results)
            if stats is not None:
                stats.relaxations += sum(r[1] for r in results)
            affected = (
                np.concatenate([r[0] for r in results])
                if results else np.empty(0, dtype=np.int64)
            )
            if stats is not None:
                stats.affected_total += int(affected.size)
                improved[affected] = True
    finally:
        if stats is not None:
            stats.affected_vertices.update(np.flatnonzero(improved).tolist())
