"""Reference batch appliers: the per-record loops.

Before both graph representations applied a change batch in one
pass, ``ChangeBatch.apply_to`` called ``DiGraph.add_edge`` /
``remove_edge`` / ``set_weight`` once per record, and
``CSRGraph.apply_batch`` located each deletion or weight-change target
with a scan of its candidate rows.  This module keeps per-record loops
as the oracle the differential suite
(``tests/test_graph_apply_differential.py``) compares the one-pass
appliers against:

- :func:`apply_to_reference` — the old ``ChangeBatch.apply_to``;
- :func:`apply_batch_reference` — one record at a time on the
  snapshot's slot layout: :func:`append_edge_reference` writes an
  insertion into the spare slots of its endpoints (relaying the layout
  out first when either region is full), :func:`find_live_min_reference`
  scans the source's live forward range for a deletion or weight
  change;
- :func:`live_ranges`, :class:`CountedCSR` and :func:`relayouts` —
  the per-vertex view the layout differentials compare, and a
  snapshot that counts its relayouts;
- :func:`normalize_against_graph_reference` — the per-record
  insertion normalisation of the old insert-only ``sosp_update``, which
  looked live weights up on the ``DiGraph`` one record at a time (the
  library's Step 1 now pulls each changed head's live in-edges).

Unlike the library, these loops validate records as they reach them,
so a bad record in the middle leaves the records before it applied,
and they relay the layout out when one record needs room rather than
once per batch.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.dynamic.changes import KIND_INSERT, KIND_DELETE, ChangeBatch
from repro.errors import BatchError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.types import FloatArray, IntArray


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
def find_live_min_reference(csr: CSRGraph, u: int, v: int) -> int:
    """The live ``(u, v)`` slot with the lexicographically smallest
    weight vector (the :meth:`DiGraph.remove_edge` target), the first
    in ``u``'s live range on ties; ``-1`` when no live edge matches."""
    best = -1
    best_w: Tuple[float, ...] = ()
    for slot in range(int(csr.indptr[u]), int(csr.out_end[u])):
        if int(csr.indices[slot]) != v:
            continue
        w = tuple(csr.weights[slot])
        if not np.isfinite(w[0]):
            continue  # tombstone
        if best < 0 or w < best_w:
            best, best_w = slot, w
    return best


def append_edge_reference(
    csr: CSRGraph, u: int, v: int, weight: FloatArray
) -> None:
    """Write the edge ``(u, v)`` at the live ends of ``u``'s forward
    and ``v``'s reverse region, relaying the layout out first (with
    room for this edge) when either region is full."""
    if (csr.out_end[u] == csr.indptr[u + 1]
            or csr.in_end[v] == csr.rev_indptr[v + 1]):
        need_out = np.zeros(csr.n, dtype=np.int64)
        need_in = np.zeros(csr.n, dtype=np.int64)
        need_out[u] = need_in[v] = 1
        csr._relayout(need_out, need_in)
    slot = int(csr.out_end[u])
    csr.indices[slot] = v
    csr.weights[slot] = weight
    csr.out_end[u] += 1
    rslot = int(csr.in_end[v])
    csr.rev_indices[rslot] = u
    csr.edge_perm[rslot] = slot
    csr.in_end[v] += 1
    csr._used += 1
    csr.num_tail_edges += 1
    csr.topology_version += 1
    csr.weights_version += 1


def append_edges_reference(
    csr: CSRGraph, src: IntArray, dst: IntArray, weights: FloatArray
) -> None:
    """Validate and append insertions one edge at a time."""
    src, dst, weights = CSRGraph._coerce_edges(src, dst, weights)
    csr._check_records(src, dst, weights)
    for i in range(len(src)):
        append_edge_reference(csr, int(src[i]), int(dst[i]), weights[i])


def apply_batch_reference(csr: CSRGraph, batch: ChangeBatch) -> None:
    """Apply a mixed batch one record at a time, in record order."""
    for i in range(batch.num_changes):
        u, v = int(batch.src[i]), int(batch.dst[i])
        code = int(batch.kind[i])
        if code == KIND_INSERT:
            append_edges_reference(
                csr, batch.src[i:i + 1], batch.dst[i:i + 1],
                batch.weights[i:i + 1],
            )
            continue
        if code != KIND_DELETE:
            csr._check_records(batch.src[i:i + 1], batch.dst[i:i + 1],
                               batch.weights[i:i + 1])
        slot = find_live_min_reference(csr, u, v)
        if slot < 0:
            continue
        if code == KIND_DELETE:
            csr.weights[slot, :] = np.inf
            csr.num_dead += 1
        else:  # KIND_WEIGHT
            csr.weights[slot] = batch.weights[i]
        csr.weights_version += 1


class CountedCSR(CSRGraph):
    """A snapshot that counts its relayouts."""

    def _relayout(self, need_out=0, need_in=0) -> None:
        self.relayouts = getattr(self, "relayouts", 0) + 1
        super()._relayout(need_out, need_in)


def relayouts(csr: CSRGraph) -> int:
    """How often ``csr`` (a :class:`CountedCSR`) relaid its layout."""
    return getattr(csr, "relayouts", 0)


def live_ranges(csr: CSRGraph) -> List[Tuple[list, list]]:
    """Every vertex's live out-range and in-range, in order, as
    ``(neighbour, weight tuple)`` lists, tombstones skipped — the
    per-vertex view the layout differentials compare."""
    out = []
    for v in range(csr.n):
        fwd = zip(csr.out_neighbors(v).tolist(),
                  csr.weights[csr.indptr[v]:csr.out_end[v]].tolist())
        rev = zip(csr.in_neighbors(v).tolist(),
                  csr.in_weight_vectors(v).tolist())
        out.append(([(u, tuple(w)) for u, w in fwd if w[0] != np.inf],
                    [(u, tuple(w)) for u, w in rev if w[0] != np.inf]))
    return out


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
