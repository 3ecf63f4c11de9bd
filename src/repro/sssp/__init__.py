"""Single-objective shortest-path substrate.

From-scratch implementations of the SSSP algorithms the paper builds
on or cites as components:

- :func:`~repro.sssp.dijkstra.dijkstra` — binary-heap Dijkstra, the
  gold-standard oracle used to build initial SOSP trees and to verify
  every incremental update.
- :func:`~repro.sssp.bellman_ford.bellman_ford` /
  :func:`~repro.sssp.bellman_ford.frontier_bellman_ford` — edge-centric
  relaxation rounds and their queue-based variant over any
  :class:`~repro.parallel.api.Engine`; recompute baselines and test
  references.  Algorithm 2's Step-3 Bellman-Ford runs on the ensemble's
  slot matrices instead
  (:func:`~repro.core.ensemble.ensemble_bellman_ford`).
- :func:`~repro.sssp.delta_stepping.delta_stepping` — the classic
  Meyer–Sanders bucketed algorithm (cited as [22]), a stronger
  recompute baseline than Bellman-Ford.
- :func:`~repro.sssp.recompute.recompute_sssp` — uniform entry point
  for the from-scratch baselines.
- :func:`~repro.sssp.verify.certify_sssp` — O(n + m) certification of
  any (dist, parent) pair against a graph.

All functions return ``(dist, parent)`` numpy arrays; ``dist`` is
``inf`` and ``parent`` is ``-1`` for unreachable vertices.
"""

from repro.sssp.bellman_ford import bellman_ford, frontier_bellman_ford
from repro.sssp.delta_stepping import delta_stepping
from repro.sssp.dijkstra import dijkstra
from repro.sssp.recompute import recompute_sssp
from repro.sssp.verify import certify_sssp

__all__ = [
    "dijkstra",
    "bellman_ford",
    "frontier_bellman_ford",
    "delta_stepping",
    "recompute_sssp",
    "certify_sssp",
]
