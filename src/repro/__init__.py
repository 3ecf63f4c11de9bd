"""repro — parallel single/multi-objective shortest-path updates in dynamic networks.

A from-scratch Python reproduction of:

    Arindam Khanda, S M Shovan, Sajal K. Das.
    "A Parallel Algorithm for Updating a Multi-objective Shortest Path
    in Large Dynamic Networks." SC-W 2023.
    https://doi.org/10.1145/3624062.3625134

Public API highlights
---------------------
- :class:`repro.graph.DiGraph` / :class:`repro.graph.CSRGraph` — dynamic
  multi-objective graphs and frozen CSR snapshots.
- :func:`repro.core.sosp_update` — Algorithm 1: parallel incremental
  SSSP update with destination grouping.
- :func:`repro.core.mosp_update` — Algorithm 2: single-MOSP heuristic
  update via per-objective tree updates + ensemble graph.
- :mod:`repro.parallel` — pluggable execution engines (serial,
  shared-memory processes, simulated parallel machine).
- :mod:`repro.sssp` / :mod:`repro.mosp` — from-scratch baselines
  (Dijkstra, Bellman-Ford, Δ-stepping, Martins' Pareto enumeration).
"""

from repro._version import __version__
from repro.graph import CSRGraph, DiGraph

__all__ = [
    "__version__",
    "DiGraph",
    "CSRGraph",
]
