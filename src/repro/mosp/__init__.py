"""Multi-objective shortest-path substrate.

The full Pareto machinery the paper's heuristic is measured against:

- :mod:`~repro.mosp.dominance` — vectorised Pareto-dominance tests and
  front filtering (the paper's Equations 1–2).
- :mod:`~repro.mosp.labels` — per-vertex Pareto label sets with
  insertion-time pruning.
- :func:`~repro.mosp.martins.martins` — Martins' label-setting
  multi-objective Dijkstra (the paper's reference [21]/[12]): enumerates
  *all* Pareto-optimal path costs from the source.  This is the exact
  baseline used to judge the quality and cost of Algorithm 2.
- :class:`~repro.mosp.dynamic_front.DynamicParetoFront` — every
  vertex's full front kept current under edge insertions and deletions.
- :mod:`~repro.mosp.pareto_front` — front quality metrics.
"""

from repro.mosp.dynamic_front import DynamicParetoFront, FrontUpdateStats
from repro.mosp.dominance import (
    dominates,
    dominates_or_equal,
    is_dominated_by_any,
    pareto_filter,
)
from repro.mosp.labels import Label, LabelSet
from repro.mosp.martins import MartinsResult, martins
from repro.mosp.pareto_front import front_distance, nondominated_against

__all__ = [
    "dominates",
    "dominates_or_equal",
    "is_dominated_by_any",
    "pareto_filter",
    "Label",
    "LabelSet",
    "martins",
    "MartinsResult",
    "front_distance",
    "nondominated_against",
    "DynamicParetoFront",
    "FrontUpdateStats",
]
