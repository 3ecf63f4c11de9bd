"""Algorithm 1, Step 2 machinery: the affected-vertex frontier.

"Step 2 first gathers all unique neighbors of all the affected
vertices in a vector N.  Then the vertices v ∈ N are assigned to
parallel threads where each thread checks for the predecessors which
are already marked as affected." (§3.1)

Collecting *unique* out-neighbours before the parallel relaxation is
what restores vertex ownership in the propagation phase: each v ∈ N is
owned by one task, which scans v's in-edges — so again no two tasks
write the same distance.

Two implementations of the gather: the original pointer-chasing walk
over a :class:`~repro.graph.digraph.DiGraph`, and a vectorised variant
over a :class:`~repro.graph.csr.CSRGraph` snapshot that slices the
forward CSR for all affected vertices at once (used by the batched
kernels in :mod:`repro.core.kernels`).  The CSR variant deduplicates
with a dense length-``n`` hit mask instead of a sort, so its cost per
superstep follows the affected set's out-degree (plus one boolean
gather over the COO tail).  They return the same *set*; the CSR variant
returns it sorted rather than in first-seen order, which the fixpoint
iteration is insensitive to.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.types import IntArray

__all__ = ["gather_unique_neighbors", "gather_unique_neighbors_csr"]


def gather_unique_neighbors(
    g: DiGraph, affected: Iterable[int]
) -> List[int]:
    """Unique out-neighbours of all ``affected`` vertices (Alg. 1 l.15-17).

    Order is deterministic (first-seen order over the affected list),
    which keeps the whole update deterministic under the serial and
    simulated engines.
    """
    seen = set()
    out: List[int] = []
    for u in affected:
        for v, _eid in g.out_edges(u):
            if v not in seen:
                seen.add(v)
                out.append(v)
    return out


def gather_unique_neighbors_csr(
    csr: CSRGraph, affected: IntArray
) -> IntArray:
    """Vectorised unique-out-neighbour gather over a CSR snapshot.

    Slices the forward CSR for every affected vertex in one shot, marks
    the heads in a dense length-``n`` hit mask (tail edges are picked
    out by an affected-vertex mask over ``tail_src``), and reads the
    mask back with ``np.flatnonzero`` — O(Σ out-degree + |tail| + n/8)
    array work, no sort and no per-edge Python.  Duplicate affected
    ids are harmless.  Returns a **sorted** int64 array.
    """
    affected = np.asarray(affected, dtype=np.int64)
    if affected.size == 0:
        return np.empty(0, dtype=np.int64)
    starts = csr.indptr[affected].astype(np.int64)
    ends = csr.indptr[affected + 1].astype(np.int64)
    deg = ends - starts
    total = int(deg.sum())
    hit = np.zeros(csr.n, dtype=bool)
    if total:
        offsets = np.concatenate(([0], np.cumsum(deg)[:-1]))
        idx = np.arange(total, dtype=np.int64) + np.repeat(
            starts - offsets, deg
        )
        hit[csr.indices[idx]] = True
    if csr.num_tail_edges:
        amask = np.zeros(csr.n, dtype=bool)
        amask[affected] = True
        hit[csr.tail_dst[amask[csr.tail_src]]] = True
    return np.flatnonzero(hit)
