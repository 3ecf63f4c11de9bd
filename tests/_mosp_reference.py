"""Reference MOSP real-weight reassignment: the per-vertex Python walk.

Algorithm 2's final move as it was first written — visit the vertices
of the combined-graph SOSP tree in distance order and add each hop's
real weight vector, found by scanning ``DiGraph.out_edges``.  The
library now runs an array kernel
(``repro.core.mosp_update._reassign_real_weights``); this module keeps
the walk as the oracle the differential tests compare it against
(``tests/test_mosp_reassign_differential.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.tree import SOSPTree
from repro.errors import AlgorithmError
from repro.graph.digraph import DiGraph
from repro.types import NO_PARENT, FloatArray, IntArray


def representative_weight(
    g: DiGraph,
    u: int,
    v: int,
    trees: Optional[Sequence[SOSPTree]] = None,
) -> FloatArray:
    """The weight vector used when re-assigning hop ``(u, v)``.

    Simple graphs have exactly one choice.  Among parallel edges the
    hop is priced with an edge some per-objective tree certifies (the
    parallel edge with the minimal ``i``-th component for each tree
    ``i`` whose parent of ``v`` is ``u``); among the certified
    candidates (or all parallels, when no tree owns the hop) the
    lexicographically smallest vector wins.
    """
    parallels: List[FloatArray] = []
    for vv, eid in g.out_edges(u):
        if vv == v:
            parallels.append(g.weight(eid))
    if not parallels:
        raise AlgorithmError(
            f"combined-tree edge ({u}, {v}) does not exist in the graph"
        )
    candidates = parallels
    if trees is not None and len(parallels) > 1:
        certified = [
            min(parallels, key=lambda w: (w[t.objective], *tuple(w)))
            for t in trees
            if t.parent[v] == u
        ]
        if certified:
            candidates = certified
    return min(candidates, key=tuple)


def reassign_real_weights(
    g: DiGraph,
    source: int,
    dist_c: FloatArray,
    parent_c: IntArray,
    out: FloatArray,
    trees: Optional[Sequence[SOSPTree]] = None,
) -> None:
    """Walk the combined-graph SOSP tree in distance order (parents
    precede children), summing the original multi-weights into
    ``out``."""
    order = np.argsort(dist_c, kind="stable")
    out[source] = 0.0
    for v in order:
        v = int(v)
        if v == source or not np.isfinite(dist_c[v]):
            continue
        p = int(parent_c[v])
        if p == NO_PARENT:
            continue
        out[v] = out[p] + representative_weight(g, p, v, trees)
