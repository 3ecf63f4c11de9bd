"""Pareto-front utilities: quality metrics.

Used by the benchmarks to judge how close the single path produced by
Algorithm 2 lands to the exact front enumerated by Martins' algorithm.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.mosp.dominance import is_dominated_by_any
from repro.types import DIST_DTYPE, FloatArray

__all__ = ["nondominated_against", "front_distance"]


def nondominated_against(point: Sequence[float], front: FloatArray) -> bool:
    """``True`` iff ``point`` is not dominated by any row of ``front``.

    The acceptance test for heuristic solutions: a point that no exact
    Pareto-optimal cost dominates is itself Pareto optimal (when the
    front is complete).
    """
    return not is_dominated_by_any(point, front)


def front_distance(point: Sequence[float], front: FloatArray) -> float:
    """Relative excess of ``point`` over the front rows that dominate it.

    0.0 when no front row dominates ``point`` (it is itself Pareto
    optimal w.r.t. the front).  Otherwise, over the rows ``f`` that
    dominate it, the smallest worst-objective relative excess
    ``max_j (point_j - f_j) / max(f_j, eps)`` — 0.10 means the closest
    dominating front point beats it by at most 10% in its worst
    objective.  Used as the quality metric in the ensemble-weighting
    ablation.
    """
    front = np.asarray(front, dtype=DIST_DTYPE)
    if front.size == 0:
        return 0.0
    p = np.asarray(point, dtype=DIST_DTYPE)
    if not is_dominated_by_any(p, front):
        return 0.0
    dominating = front[np.all(front <= p, axis=1) & np.any(front < p, axis=1)]
    eps = 1e-12
    rel = (p[None, :] - dominating) / np.maximum(dominating, eps)
    worst_per_row = rel.max(axis=1)
    return float(worst_per_row.min())
