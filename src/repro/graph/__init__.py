"""Graph substrate: dynamic directed graphs with multi-objective weights.

This package provides everything the shortest-path layers sit on:

- :class:`~repro.graph.digraph.DiGraph` — a mutable directed graph with
  per-edge weight *vectors* (one component per objective), O(1)
  amortised edge insertion and tombstone deletion.  This is the
  "arrays of structures" adjacency the paper describes, adapted to
  numpy storage.
- :class:`~repro.graph.csr.CSRGraph` — a compressed sparse-row graph
  (forward and reverse) whose per-vertex regions keep spare slots for
  appended edges, read by the vectorised kernels and mutated in place
  by
  :meth:`~repro.graph.csr.CSRGraph.apply_batch` — the one graph the
  update path reads.
- :mod:`~repro.graph.generators` — seeded synthetic network
  generators, including the road-like and random-geometric families
  used as stand-ins for the paper's Table 2 datasets.
- :mod:`~repro.graph.io` — edge-list and MatrixMarket readers/writers
  so the real network-repository datasets can be dropped in.
"""

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_road,
    layered_dag,
    path_graph,
    preferential_attachment,
    random_geometric,
    road_like,
    star_graph,
)
from repro.graph.multiweight import (
    anticorrelated_weights,
    attach_random_weights,
    correlated_weights,
    uniform_weights,
)

__all__ = [
    "DiGraph",
    "CSRGraph",
    "grid_road",
    "road_like",
    "random_geometric",
    "erdos_renyi",
    "preferential_attachment",
    "layered_dag",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "attach_random_weights",
    "uniform_weights",
    "correlated_weights",
    "anticorrelated_weights",
]
