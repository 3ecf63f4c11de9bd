"""Reference batch appliers: the per-record loops.

Before both graph representations applied a change batch in one
pair-indexed pass, ``ChangeBatch.apply_to`` called ``DiGraph.add_edge``
/ ``remove_edge`` / ``set_weight`` once per record, and
``CSRGraph.apply_batch`` split the batch into runs of one record kind:
insertion runs went through ``append_edges``, deletion and
weight-change runs through ``delete_edges`` / ``update_edge_weights``,
which located each target with ``_find_live_min`` — a scan of the base
slice plus the *whole* COO tail.  This module keeps those loops as the
oracle the differential suite (``tests/test_graph_apply_differential.py``)
compares the one-pass appliers against:

- :func:`apply_to_reference` — the old ``ChangeBatch.apply_to``;
- :func:`apply_batch_reference` — the old ``CSRGraph.apply_batch``,
  with :func:`append_edges_reference`, :func:`find_live_min_reference`,
  :func:`delete_edges_reference` and
  :func:`update_edge_weights_reference`;
- :func:`normalize_against_graph_reference` — the per-record
  insertion normalisation of the old insert-only ``sosp_update``, which
  looked live weights up on the ``DiGraph`` one record at a time (the
  library now builds one stimulus per distinct pair in Step 1).

Unlike the library, these loops validate records as they reach them,
so a bad record in the middle leaves the records before it applied.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.dynamic.changes import KIND_INSERT, KIND_DELETE, ChangeBatch
from repro.errors import BatchError, GraphError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.types import VERTEX_DTYPE, FloatArray, IntArray


# ----------------------------------------------------------------------
# DiGraph
# ----------------------------------------------------------------------
def min_weight_eid_reference(g: DiGraph, u: int, v: int) -> Optional[int]:
    """The live ``(u, v)`` edge with the lexicographically smallest
    weight vector (the one :meth:`DiGraph.remove_edge` targets), or
    ``None`` when no live edge exists."""
    best: Optional[int] = None
    for vv, eid in g.out_edges(u):
        if vv == v and (
            best is None
            or tuple(g.weight(eid)) < tuple(g.weight(best))
        ):
            best = eid
    return best


def apply_to_reference(batch: ChangeBatch, g: DiGraph) -> List[int]:
    """Apply ``batch`` to ``g`` one record at a time (the old
    ``ChangeBatch.apply_to``)."""
    if batch.num_changes and (
        int(batch.src.max(initial=0)) >= g.num_vertices
        or int(batch.dst.max(initial=0)) >= g.num_vertices
    ):
        raise BatchError(
            "batch references vertices outside the graph; "
            "grow the graph first with add_vertices()"
        )
    if (
        batch.num_changes > batch.num_deletions
        and batch.num_objectives != g.num_objectives
    ):
        raise BatchError(
            f"batch k={batch.num_objectives} != graph k={g.num_objectives}"
        )
    eids: List[int] = []
    for i in range(batch.num_changes):
        u, v = int(batch.src[i]), int(batch.dst[i])
        code = int(batch.kind[i])
        if code == KIND_INSERT:
            eids.append(g.add_edge(u, v, batch.weights[i]))
        elif code == KIND_DELETE:
            # the body of the old DiGraph.remove_edge, which scanned
            # for the same lex-min target
            eid = min_weight_eid_reference(g, u, v)
            if eid is not None:
                g.remove_edge_id(eid)
        else:  # KIND_WEIGHT
            eid = min_weight_eid_reference(g, u, v)
            if eid is not None:
                g.set_weight(eid, batch.weights[i])
    return eids


# ----------------------------------------------------------------------
# CSRGraph
# ----------------------------------------------------------------------
def find_live_min_reference(csr: CSRGraph, u: int, v: int) -> Tuple[int, int]:
    """Locate the live ``(u, v)`` edge with the lexicographically
    smallest weight vector (the :meth:`DiGraph.remove_edge` target).

    Returns ``(where, row)`` with ``where`` 0 = base / 1 = tail, or
    ``(-1, -1)`` when no live edge matches.  Base rows precede tail
    rows in the scan, matching insertion order, so ties resolve to
    the same multiset outcome as the digraph.
    """
    best_where, best_row = -1, -1
    best_w: Tuple[float, ...] = ()
    for row in range(int(csr.indptr[u]), int(csr.indptr[u + 1])):
        if int(csr.indices[row]) != v:
            continue
        w = tuple(csr.weights[row])
        if not np.isfinite(w[0]):
            continue  # tombstone
        if best_where < 0 or w < best_w:
            best_where, best_row, best_w = 0, row, w
    if csr.num_tail_edges:
        for row in np.flatnonzero(
            (csr.tail_src == u) & (csr.tail_dst == v)
        ):
            w = tuple(csr.tail_weights[int(row)])
            if not np.isfinite(w[0]):
                continue
            if best_where < 0 or w < best_w:
                best_where, best_row, best_w = 1, int(row), w
    return best_where, best_row


def append_edges_reference(
    csr: CSRGraph, src: IntArray, dst: IntArray, weights: FloatArray
) -> None:
    """The old ``CSRGraph.append_edges``: validate, concatenate onto the
    COO tail, extend the pair index (when built), then re-freeze if the
    tail outgrew ``max(MIN_TAIL_REBUILD, TAIL_REBUILD_FRACTION * m)``."""
    src, dst, weights = CSRGraph._coerce_edges(src, dst, weights)
    csr._check_records(src, dst, weights)
    if len(src) == 0:
        return
    start = csr.num_tail_edges
    csr.tail_src = np.concatenate((csr.tail_src, src))
    csr.tail_dst = np.concatenate((csr.tail_dst, dst))
    csr.tail_weights = np.concatenate((csr.tail_weights, weights))
    csr.tail_version += 1
    if csr._pairs is not None:
        for row, key in enumerate((src * csr.n + dst).tolist(), start):
            csr._pairs[key] = csr._pairs.get(key, ()) + (row,)
    limit = max(csr.MIN_TAIL_REBUILD,
                int(csr.TAIL_REBUILD_FRACTION * csr.m))
    if csr.num_tail_edges > limit:
        csr.compact()


def delete_edges_reference(csr: CSRGraph, src: IntArray, dst: IntArray) -> int:
    """Tombstone one live edge per ``(u, v)`` record, in order.

    The target row's weight vector becomes ``+inf``.  Records with no
    live match are skipped.  Returns the number tombstoned.
    """
    src = np.ascontiguousarray(src, dtype=VERTEX_DTYPE)
    dst = np.ascontiguousarray(dst, dtype=VERTEX_DTYPE)
    removed = 0
    base_touched = tail_touched = False
    for u, v in zip(src.tolist(), dst.tolist()):
        where, row = find_live_min_reference(csr, int(u), int(v))
        if where < 0:
            continue
        if where == 0:
            csr.weights[row, :] = np.inf
            base_touched = True
        else:
            csr.tail_weights[row, :] = np.inf
            tail_touched = True
        csr.num_dead += 1
        removed += 1
    if base_touched:
        csr.base_version += 1
    if tail_touched:
        csr.tail_version += 1
    return removed


def update_edge_weights_reference(
    csr: CSRGraph, src: IntArray, dst: IntArray, weights: FloatArray
) -> int:
    """Overwrite the weight vector of one live edge per record, each
    record re-resolving its target after the previous one applied.
    Records with no live match are skipped.  Returns the number of
    rows rewritten."""
    src, dst, weights = CSRGraph._coerce_edges(src, dst, weights)
    if weights.shape[1] != csr.k:
        raise GraphError(
            f"weight updates have k={weights.shape[1]}, snapshot "
            f"has k={csr.k}"
        )
    changed = 0
    base_touched = tail_touched = False
    for i in range(len(src)):
        where, row = find_live_min_reference(csr, int(src[i]), int(dst[i]))
        if where < 0:
            continue
        if where == 0:
            csr.weights[row] = weights[i]
            base_touched = True
        else:
            csr.tail_weights[row] = weights[i]
            tail_touched = True
        changed += 1
    if base_touched:
        csr.base_version += 1
    if tail_touched:
        csr.tail_version += 1
    return changed


def apply_batch_reference(csr: CSRGraph, batch: ChangeBatch) -> None:
    """Apply a mixed batch in record order, one run of equal record
    kinds at a time (the old ``CSRGraph.apply_batch``).  Insertion
    runs go through :func:`append_edges_reference`, so the tail may
    compact between runs."""
    kind = np.asarray(batch.kind)
    b = int(kind.shape[0])
    i = 0
    while i < b:
        j = i + 1
        while j < b and kind[j] == kind[i]:
            j += 1
        code = int(kind[i])
        if code == KIND_INSERT:
            append_edges_reference(
                csr, batch.src[i:j], batch.dst[i:j], batch.weights[i:j]
            )
        elif code == KIND_DELETE:
            delete_edges_reference(csr, batch.src[i:j], batch.dst[i:j])
        else:  # KIND_WEIGHT
            update_edge_weights_reference(
                csr, batch.src[i:j], batch.dst[i:j], batch.weights[i:j]
            )
        i = j


# ----------------------------------------------------------------------
# live-weight normalisation (Algorithm 1's insertion stimuli)
# ----------------------------------------------------------------------
def normalize_against_graph_reference(
    graph: DiGraph, batch: ChangeBatch, objective: int
) -> ChangeBatch:
    """Rewrite insertion records to the minimum live ``(u, v)`` weight
    for ``objective``; drop records with no surviving edge."""
    src, dst, w = batch.insert_records()
    if len(src) == 0:
        return batch
    keep_src: List[int] = []
    keep_dst: List[int] = []
    keep_w: List[np.ndarray] = []
    for i in range(len(src)):
        u, v = int(src[i]), int(dst[i])
        live = graph.min_weight_between(u, v, objective)
        if not np.isfinite(live):
            continue  # edge no longer exists (deleted later in batch)
        row = w[i].copy()
        row[objective] = live
        keep_src.append(u)
        keep_dst.append(v)
        keep_w.append(row)
    if not keep_src:
        return ChangeBatch.insertions([])
    return ChangeBatch(
        np.asarray(keep_src),
        np.asarray(keep_dst),
        np.vstack(keep_w),
        np.ones(len(keep_src), dtype=bool),
    )
