"""Objective-priority helpers for the ensemble weighting.

§3.2's application scenario: a drone delivery system switches between
prioritising flying time and energy depending on the remaining energy
budget.  These helpers turn such domain state into the ``priorities``
vector accepted by :func:`~repro.core.ensemble.build_ensemble` /
:func:`~repro.core.mosp_update.mosp_update`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import AlgorithmError
from repro.types import DIST_DTYPE, FloatArray

__all__ = ["normalize_priorities", "budget_driven_priorities"]


def normalize_priorities(priorities: Sequence[float]) -> FloatArray:
    """Scale positive priorities so that they sum to 1."""
    p = np.asarray(priorities, dtype=DIST_DTYPE)
    if p.ndim != 1 or p.size == 0 or not np.all(np.isfinite(p) & (p > 0)):
        raise AlgorithmError(
            f"priorities must be a non-empty vector of finite positives, got "
            f"{priorities!r}"
        )
    return p / p.sum()


def budget_driven_priorities(
    estimated_costs: Sequence[float],
    budgets: Sequence[Optional[float]],
    pressure: float = 4.0,
) -> FloatArray:
    """Priorities that grow for objectives close to (or over) budget.

    The paper's drone scenario: if the fast route's energy cost exceeds
    the remaining battery (``c_f > B``), energy must dominate the
    route choice; with slack (``B > c_f``), time can lead.

    Each objective with a budget gets priority
    ``1 + pressure * max(0, cost/budget - slack_floor)`` where
    ``slack_floor = 0.5`` — i.e. priority rises once a route consumes
    more than half its budget and grows linearly past it.  Unbudgeted
    objectives (``None``) keep priority 1.

    Examples
    --------
    >>> p = budget_driven_priorities([30.0, 95.0], [None, 100.0])
    >>> p[1] > p[0]
    True
    """
    costs = np.asarray(estimated_costs, dtype=DIST_DTYPE)
    if len(budgets) != costs.size:
        raise AlgorithmError("costs and budgets must have equal length")
    if np.any(costs < 0):
        raise AlgorithmError("estimated costs must be non-negative")
    out = np.ones_like(costs)
    for i, b in enumerate(budgets):
        if b is None:
            continue
        if b <= 0:
            raise AlgorithmError(f"budget[{i}] must be positive, got {b}")
        utilisation = costs[i] / b
        out[i] = 1.0 + pressure * max(0.0, utilisation - 0.5)
    return out
