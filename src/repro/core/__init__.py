"""The paper's contribution: parallel SOSP and MOSP update algorithms.

- :class:`~repro.core.tree.SOSPTree` — the single-objective shortest
  path tree (parent + distance arrays), the paper's central data
  structure.
- :func:`~repro.core.sosp_update.sosp_update` — **Algorithm 1** for
  any batch of insertions, deletions and weight changes: one
  invalidation sweep over the subtrees that deleted or raised tree
  edges cut loose (Step D, the edge deletion extension sketched in the
  paper's conclusion), one race-free relaxation superstep over the
  batch's changed heads (Steps 0 and 1), and the same superstep looped
  over the affected frontier (Step 2).  ``apply_mixed_batch`` is its
  legacy name and call shape, kept only for the benchmark harness.
- :func:`~repro.core.ensemble.build_ensemble` — **Algorithm 2 Step 2**:
  the combined graph with ``k − x + 1`` (or priority) edge weights, as
  ``(k, n)`` slot matrices that Step 3
  (:func:`~repro.core.ensemble.ensemble_bellman_ford`) reads directly.
- :func:`~repro.core.mosp_update.mosp_update` — **Algorithm 2**: the
  single-MOSP update heuristic (update trees → ensemble → parallel
  Bellman-Ford → real-weight reassignment).
- :mod:`repro.core.kernels` — the NumPy-vectorised CSR kernel every
  update entry point runs: one reverse-CSR relaxation superstep, run
  once for Step 1 and in a loop for Step 2, certified against the
  pointer-chasing reference kept in the test suite and against
  Dijkstra by the differential test harness.
"""

from repro.core.ensemble import EnsembleGraph, build_ensemble
from repro.core.mosp_update import MOSPResult, mosp_update
from repro.core.sosp_update import UpdateStats, apply_mixed_batch, sosp_update
from repro.core.tree import SOSPTree

__all__ = [
    "SOSPTree",
    "sosp_update",
    "apply_mixed_batch",
    "UpdateStats",
    "build_ensemble",
    "EnsembleGraph",
    "mosp_update",
    "MOSPResult",
]
