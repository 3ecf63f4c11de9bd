"""The paper's contribution: parallel SOSP and MOSP update algorithms.

- :class:`~repro.core.tree.SOSPTree` — the single-objective shortest
  path tree (parent + distance arrays), the paper's central data
  structure.
- :func:`~repro.core.sosp_update.sosp_update` — **Algorithm 1**:
  parallel incremental SSSP update with destination grouping (Step 0),
  race-free batch application (Step 1), and iterative affected-frontier
  propagation (Step 2).
- :func:`~repro.core.fully_dynamic.apply_mixed_batch` — the unified fully dynamic pipeline for
  mixed insertion / deletion / weight-change batches: one invalidate /
  seed / propagate pass over the same slab kernels — the edge
  deletion extension sketched in the paper's conclusion.
- :func:`~repro.core.ensemble.build_ensemble` — **Algorithm 2 Step 2**:
  the combined graph with ``k − x + 1`` (or priority) edge weights, as
  ``(k, n)`` slot matrices that Step 3
  (:func:`~repro.core.ensemble.ensemble_bellman_ford`) reads directly.
- :func:`~repro.core.mosp_update.mosp_update` — **Algorithm 2**: the
  single-MOSP update heuristic (update trees → ensemble → parallel
  Bellman-Ford → real-weight reassignment).
- :mod:`repro.core.kernels` — the NumPy-vectorised CSR kernels every
  update entry point runs: batched Step-1 group relaxation and
  reverse-CSR Step-2 frontier propagation, certified against the
  pointer-chasing reference kept in the test suite and against
  Dijkstra by the differential test harness.
"""

from repro.core.ensemble import EnsembleGraph, build_ensemble
from repro.core.fully_dynamic import MixedUpdateStats, apply_mixed_batch
from repro.core.mosp_update import MOSPResult, mosp_update
from repro.core.sosp_update import UpdateStats, sosp_update
from repro.core.tree import SOSPTree

__all__ = [
    "SOSPTree",
    "sosp_update",
    "apply_mixed_batch",
    "MixedUpdateStats",
    "UpdateStats",
    "build_ensemble",
    "EnsembleGraph",
    "mosp_update",
    "MOSPResult",
]
