"""NumPy-vectorised CSR kernels for the Algorithm 1 hot loop.

The paper's per-vertex tasks relax edges one at a time — in Python,
one iterator step per edge of a :class:`~repro.graph.digraph.DiGraph`.
This module re-expresses Algorithm 1's relaxation as one *batched array
superstep* over a :class:`~repro.graph.csr.CSRGraph` snapshot
(:func:`relax_superstep`), which Step 1 runs once and Step 2
(:func:`propagate_csr`) runs until its frontier is empty:

- the in-edges of every frontier vertex are gathered with one
  concatenated reverse-CSR slice (:func:`gather_ranges`),
- candidate distances are computed for the whole frontier in one
  ``dist[preds] + w`` expression over every live in-edge,
- the per-vertex minimum and its witness predecessor come from a
  ``np.minimum.reduceat``-style segmented reduction
  (:func:`segmented_argmin`).

Step 1's frontier is the heads of the batch's inserted and re-weighted
edges plus Step D's invalidated vertices; each later superstep's is
the unique out-neighbours of the vertices the previous one improved.
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
    "relax_superstep",
    "propagate_csr",
]

#: Import ref of the relaxation slab kernel, resolved inside
#: shared-memory workers.  A module constant (rather than an inline
#: literal) so the crash-recovery tests can monkeypatch in a kernel
#: that dies mid-superstep while delegating to the real one on the
#: master.
_PROPAGATE_SLAB_REF = "repro.core.kernels:_propagate_relax_slab"

#: Minimum frontier vertices per engine slab — below this, per-task
#: dispatch overhead dwarfs the vectorised body.
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


#: The arrays the slab kernel mutates — the copy-back set of a
#: dispatched superstep (everything else in its task is read-only).
_SOSP_WRITES: Tuple[str, ...] = ("sosp.dist", "sosp.parent")


def _propagate_relax_slab(
    arrays: Mapping[str, np.ndarray],
    params: Mapping[str, Any],
    lo: int,
    hi: int,
) -> Tuple[IntArray, int]:
    """Slab kernel of one relaxation superstep: relax frontier
    positions ``[lo, hi)``.

    Pull-based: gathers every live in-edge of its frontier vertices
    from their reverse ranges, reduces with :func:`segmented_argmin`,
    and applies improved distances in place.  Frontier positions
    partition across slabs, so writes are single-owner by construction.
    """
    frontier = arrays["sosp.frontier"]
    rev_indptr = arrays["csr.rev_indptr"]
    in_end = arrays["csr.in_end"]
    rev_indices = arrays["csr.rev_indices"]
    edge_perm = arrays["csr.edge_perm"]
    w_col = arrays["csr.weights"][:, int(params["objective"])]
    dist = arrays["sosp.dist"]
    parent = arrays["sosp.parent"]

    f = frontier[lo:hi]
    idx, seg_starts = gather_ranges(rev_indptr[f], in_end[f])
    scanned = int(idx.size)
    if idx.size:
        preds = rev_indices[idx].astype(np.int64)
        cand = dist[preds] + w_col[edge_perm[idx]]
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


def relax_superstep(
    csr: CSRGraph,
    dist: FloatArray,
    parent: IntArray,
    frontier: IntArray,
    objective: int,
    engine: Engine,
) -> Tuple[IntArray, int]:
    """One relaxation superstep of Algorithm 1, Step 1 or Step 2.

    Covers the sorted, duplicate-free ``frontier`` with engine slabs;
    each slab pulls every live in-edge of its vertices through the
    reverse CSR in one gather, reduces per vertex with
    :func:`segmented_argmin`, and writes the strictly improved
    ``dist``/``parent`` entries in place.  ``engine`` is already
    resolved; a checked engine's tracker gets one owner (slab) per
    improved vertex.

    Returns ``(improved, scanned)``: the improved vertices and the
    number of in-edges relaxed.
    """
    if frontier.size == 0:
        return np.empty(0, dtype=np.int64), 0
    # the graph arrays are fingerprinted with the snapshot's stamps:
    # an insertion moves both, a deletion or re-weight only the
    # weights', so a dispatch re-plants exactly what a batch wrote
    topo_fp = csr.topology_stamp
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
            "sosp.frontier": frontier,
        },
        params={"objective": int(objective)},
        writes=_SOSP_WRITES,
        fingerprints={
            "csr.rev_indptr": topo_fp,
            "csr.in_end": topo_fp,
            "csr.rev_indices": topo_fp,
            "csr.edge_perm": topo_fp,
            "csr.weights": csr.weights_stamp,
        },
    )
    results = parallel_for_slabs(
        engine, int(frontier.size), task,
        work_fn=lambda span, r: max(1, r[1]),
        min_chunk=MIN_SLAB_ITEMS,
    )
    _record_slab_writes(resolve_tracker(engine), results)
    improved = (
        np.concatenate([r[0] for r in results])
        if results else np.empty(0, dtype=np.int64)
    )
    return improved, int(sum(r[1] for r in results))


def propagate_csr(
    csr: CSRGraph,
    dist: FloatArray,
    parent: IntArray,
    affected: IntArray,
    objective: int = 0,
    engine: Optional[Engine] = None,
    stats: Optional["UpdateStats"] = None,
) -> None:
    """Vectorised Step 2: propagate the update through the affected
    subgraph until the frontier is empty.

    Per iteration: gather the unique out-neighbours ``N`` of the
    affected set (:func:`gather_unique_neighbors_csr`) and run one
    :func:`relax_superstep` over them; its improved vertices are the
    next affected set.  Mutates ``dist``/``parent`` in place.

    ``stats`` (duck-typed :class:`~repro.core.sosp_update.UpdateStats`)
    is updated when given.
    """
    eng = resolve_engine(engine)
    affected = np.asarray(affected, dtype=np.int64)

    # dense per-call scratch: ``improved`` collects the distinct
    # affected vertices, so no superstep sorts, hashes or feeds a
    # Python set
    improved = np.zeros(csr.n, dtype=bool)
    try:
        while affected.size:
            frontier = gather_unique_neighbors_csr(csr, affected)
            if stats is not None:
                stats.frontier_sizes.append(int(frontier.size))
                stats.iterations += 1
            affected, scanned = relax_superstep(
                csr, dist, parent, frontier, objective, eng
            )
            if stats is not None:
                stats.relaxations += scanned
                stats.affected_total += int(affected.size)
                improved[affected] = True
    finally:
        if stats is not None:
            stats.affected_vertices.update(np.flatnonzero(improved).tolist())
