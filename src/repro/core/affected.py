"""Algorithm 1, Step 2 machinery: the affected-vertex frontier.

"Step 2 first gathers all unique neighbors of all the affected
vertices in a vector N.  Then the vertices v ∈ N are assigned to
parallel threads where each thread checks for the predecessors which
are already marked as affected." (§3.1)

Collecting *unique* out-neighbours before the parallel relaxation is
what restores vertex ownership in the propagation phase: each v ∈ N is
owned by one task, which scans v's in-edges — so again no two tasks
write the same distance.

The gather runs over a :class:`~repro.graph.csr.CSRGraph` snapshot: it
slices the live forward range of every affected vertex at once (used
by the batched kernels in :mod:`repro.core.kernels`) and deduplicates
with a dense length-``n`` hit mask instead of a sort, so its cost per
superstep follows the affected set's out-degree.  The frontier comes
back sorted, which the fixpoint iteration is insensitive to.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, gather_ranges
from repro.types import IntArray

__all__ = ["gather_unique_neighbors_csr"]


def gather_unique_neighbors_csr(
    csr: CSRGraph, affected: IntArray
) -> IntArray:
    """Vectorised unique-out-neighbour gather over a CSR snapshot.

    Slices the live forward range of every affected vertex in one
    shot, marks the heads in a dense length-``n`` hit mask, and reads
    the mask back with ``np.flatnonzero`` — O(Σ out-degree + n/8)
    array work, no sort and no per-edge Python.  Duplicate affected
    ids are harmless.  Returns a **sorted** int64 array.
    """
    affected = np.asarray(affected, dtype=np.int64)
    if affected.size == 0:
        return np.empty(0, dtype=np.int64)
    idx, _ = gather_ranges(csr.indptr[affected], csr.out_end[affected])
    hit = np.zeros(csr.n, dtype=bool)
    hit[csr.indices[idx]] = True
    return np.flatnonzero(hit)
