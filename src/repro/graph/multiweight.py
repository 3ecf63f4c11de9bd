"""Multi-objective weight attachment and weight distributions.

The paper (§4, Experimental Setup) takes unweighted networks from the
network-repository collection and "adds a set of random edge weights
depending on the number of objectives".  These helpers implement that
step, plus correlated / anticorrelated variants that are standard in
the multi-objective shortest path literature: anticorrelated weights
produce large Pareto fronts (the hard case), correlated weights produce
near-degenerate fronts (the easy case).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import WeightError
from repro.graph.digraph import DiGraph
from repro.types import DIST_DTYPE, FloatArray

__all__ = [
    "uniform_weights",
    "correlated_weights",
    "anticorrelated_weights",
    "attach_random_weights",
]


def uniform_weights(
    m: int,
    k: int,
    rng: np.random.Generator,
    low: float = 1.0,
    high: float = 10.0,
) -> FloatArray:
    """Independent uniform weights in ``[low, high)``, shape ``(m, k)``."""
    if high <= low:
        raise WeightError(f"need high > low, got [{low}, {high})")
    if low < 0:
        raise WeightError("weights must be non-negative")
    return rng.uniform(low, high, size=(m, k)).astype(DIST_DTYPE)


def correlated_weights(
    m: int,
    k: int,
    rng: np.random.Generator,
    low: float = 1.0,
    high: float = 10.0,
    noise: float = 0.1,
) -> FloatArray:
    """Weights whose objectives are positively correlated.

    A base value ``b`` is drawn per edge; each objective is
    ``b * (1 + noise * eps)`` clipped to stay inside ``[low, high]``.
    With small ``noise`` the Pareto front of any path collapses to
    nearly a single point — the easy case for multi-objective search.
    """
    base = rng.uniform(low, high, size=(m, 1))
    eps = rng.standard_normal(size=(m, k))
    w = base * (1.0 + noise * eps)
    return np.clip(w, low, high).astype(DIST_DTYPE)


def anticorrelated_weights(
    m: int,
    k: int,
    rng: np.random.Generator,
    low: float = 1.0,
    high: float = 10.0,
) -> FloatArray:
    """Weights where a cheap objective-``i`` edge is expensive elsewhere.

    Objective 0 is uniform; each other objective ``j`` is the mirrored
    value ``low + high - w0`` plus small jitter.  Anticorrelated costs
    maximise the number of incomparable paths and therefore the Pareto
    front size — the hard case for multi-objective search.
    """
    w = np.empty((m, k), dtype=DIST_DTYPE)
    w[:, 0] = rng.uniform(low, high, size=m)
    jitter_scale = 0.05 * (high - low)
    for j in range(1, k):
        jitter = rng.uniform(-jitter_scale, jitter_scale, size=m)
        w[:, j] = np.clip(low + high - w[:, 0] + jitter, low, high)
    return w


_DISTRIBUTIONS = {
    "uniform": uniform_weights,
    "correlated": correlated_weights,
    "anticorrelated": anticorrelated_weights,
}


def attach_random_weights(
    g: DiGraph,
    k: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    distribution: str = "uniform",
    low: float = 1.0,
    high: float = 10.0,
) -> DiGraph:
    """Return a copy of ``g`` re-weighted with ``k`` random objectives.

    This reproduces the paper's dataset preparation: the topology of
    ``g`` is kept, every live edge receives a fresh random weight
    vector drawn from ``distribution``
    (``uniform`` | ``correlated`` | ``anticorrelated``).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if k is None:
        k = g.num_objectives
    try:
        dist = _DISTRIBUTIONS[distribution]
    except KeyError:
        raise WeightError(
            f"unknown distribution {distribution!r}; "
            f"expected one of {sorted(_DISTRIBUTIONS)}"
        ) from None
    src, dst, _ = g.edge_arrays()
    w = dist(len(src), k, rng, low=low, high=high)
    out = DiGraph(g.num_vertices, k)
    for i in range(len(src)):
        out.add_edge(int(src[i]), int(dst[i]), w[i])
    return out
