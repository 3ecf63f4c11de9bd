"""Algorithm 2, Steps 2–3 on the combined (ensemble) graph.

"The algorithm first creates an ensemble graph E by considering all the
edges from the SOSP trees T_i ∀i = 1..k.  If an edge e ∈ E appears in x
number of SOSP trees, then the balanced approach assigns edge weight
(k − x + 1) to that edge.  This approach assigns less weight to edges
that appear in more SOSP trees while assigning more weight to uncommon
edges." (§3.2)

Implementation follows §4: "we directly use the parent-child
relationship in the tree structure to find the edges.  We assign a
single thread to each vertex to compare its parents among all the SOSP
trees".  Every vertex has at most ``k`` combined-graph in-edges — its
column of the trees' stacked ``(k, n)`` parent matrix — so the combined
graph stays that matrix: :func:`build_ensemble` (Step 2) turns it into
slot matrices, one slot per distinct parent, and
:func:`ensemble_bellman_ford` (Step 3) solves on them directly.  No
:class:`~repro.graph.csr.CSRGraph` is built on the way; the edge list
and a CSR are derived on first access, for tests and ablations.

Weighting schemes
-----------------
``balanced``   ``k − x + 1`` (the paper's default).
``priority``   an edge contributed by tree ``T_i`` gets weight
               inversely proportional to objective ``i``'s priority
               (the paper's prioritised variant); an edge in several
               trees takes its smallest weight.
``unit``       every ensemble edge weighs 1 (the Theorem 1 setting, and
               the control arm of the weighting ablation).

Every scheme gives positive weights, which is all Step 3 needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels import MIN_SLAB_ITEMS
from repro.core.tree import SOSPTree
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph
from repro.parallel.api import (
    Engine,
    SlabTask,
    parallel_for_slabs,
    resolve_engine,
)
from repro.types import (
    DIST_DTYPE,
    INF,
    NO_PARENT,
    VERTEX_DTYPE,
    FloatArray,
    IntArray,
    WeightVector,
)

__all__ = ["build_ensemble", "EnsembleGraph", "ensemble_bellman_ford",
           "resolve_weighting"]


def resolve_weighting(
    weighting: str, priorities: Optional[WeightVector], k: int
) -> Optional[FloatArray]:
    """Validate the weighting scheme; return the priorities array (or
    ``None`` for non-priority schemes)."""
    if weighting not in ("balanced", "priority", "unit"):
        raise AlgorithmError(
            f"unknown weighting {weighting!r}; "
            "expected balanced | priority | unit"
        )
    if weighting != "priority":
        return None
    if priorities is None:
        raise AlgorithmError("priority weighting requires priorities")
    prio = np.asarray(priorities, dtype=DIST_DTYPE)
    if prio.shape != (k,) or not np.all(np.isfinite(prio) & (prio > 0)):
        raise AlgorithmError(
            f"priorities must be {k} finite positive values, got "
            f"{priorities!r}"
        )
    return prio


@dataclass(eq=False)
class EnsembleGraph:
    """The combined graph as ``(k, n)`` in-edge slot matrices.

    Column ``v`` lists ``v``'s distinct tree parents in ascending order
    from slot 0; the slots after them are dead.

    Attributes
    ----------
    parents:
        ``(k, n)`` int64 slot parent; ``n`` (one past the last vertex)
        on a dead slot.
    weights:
        ``(k, n)`` float64 scheme weight of the slot's edge; ``inf`` on
        a dead slot.
    counts:
        ``(k, n)`` int64 — how many trees contain the slot's edge (the
        ``x`` of the ``k − x + 1`` formula); 0 on a dead slot.

    ``edge_src``/``edge_dst``/``edge_count``/``edge_weight`` (the live
    slots as an edge list, ``v``-major and parent-ascending), ``csr``
    and ``occurrences`` are built on first access: tests and ablations
    read them, the pipeline does not.
    """

    parents: IntArray
    weights: FloatArray
    counts: IntArray

    @cached_property
    def _live_slots(self) -> Tuple[IntArray, IntArray]:
        """``(vertex, slot)`` of every live slot, ``v``-major."""
        v, j = np.nonzero(np.isfinite(self.weights.T))
        return v.astype(VERTEX_DTYPE), j

    @cached_property
    def edge_src(self) -> IntArray:
        v, j = self._live_slots
        return self.parents[j, v]

    @cached_property
    def edge_dst(self) -> IntArray:
        return self._live_slots[0]

    @cached_property
    def edge_count(self) -> IntArray:
        v, j = self._live_slots
        return self.counts[j, v]

    @cached_property
    def edge_weight(self) -> FloatArray:
        v, j = self._live_slots
        return self.weights[j, v]

    @cached_property
    def csr(self) -> CSRGraph:
        """Single-objective :class:`~repro.graph.csr.CSRGraph` over the
        original vertex set, every live slot once with its weight."""
        return CSRGraph(self.parents.shape[1], self.edge_src, self.edge_dst,
                        self.edge_weight.reshape(-1, 1))

    @cached_property
    def occurrences(self) -> Dict[Tuple[int, int], int]:
        """``{(u, v): x}`` — the per-edge counts as a dict."""
        return dict(zip(
            zip(self.edge_src.tolist(), self.edge_dst.tolist()),
            self.edge_count.tolist(),
        ))


def _sort_columns(a: IntArray) -> None:
    """Sort every column of the ``(k, m)`` array ascending, in place:
    odd-even transposition, ``k`` rounds of one vectorised
    compare-exchange over every disjoint row pair."""
    k = a.shape[0]
    for r in range(k):
        lo, hi = a[r % 2 : k - 1 : 2], a[r % 2 + 1 : k : 2]
        lo[...], hi[...] = np.minimum(lo, hi), np.maximum(lo, hi)


def _ensemble_slab(
    arrays: Mapping[str, np.ndarray],
    params: Mapping[str, Any],
    lo: int,
    hi: int,
) -> int:
    """Slab kernel of Step 2: fill the slot columns ``[lo, hi)``.

    Reads the stacked ``(k, n)`` tree parent/dist matrices and writes
    ``ens.slot_*`` in place; returns the slab's live slot count.  A
    sort puts equal parents side by side; every repeat becomes the
    sentinel ``n`` and a second sort packs the distinct parents to the
    top of the column.  Each slot's count (and its priority weight)
    then comes from comparing it with the ``k`` tree parents.
    """
    parents = arrays["ens.parents"][:, lo:hi]
    dists = arrays["ens.dists"][:, lo:hi]
    k, n = arrays["ens.parents"].shape
    p = np.where((parents != NO_PARENT) & np.isfinite(dists), parents, n)
    slot = p.copy()
    _sort_columns(slot)
    slot[1:] = np.where(slot[1:] == slot[:-1], n, slot[1:])
    _sort_columns(slot)
    live = slot < n
    # in_tree[j, i, v]: tree i's parent of v is slot j's parent
    in_tree = p[None, :, :] == slot[:, None, :]
    cnt = np.where(live, in_tree.sum(axis=1), 0)
    weighting = params["weighting"]
    if weighting == "balanced":
        w = (k - cnt + 1).astype(DIST_DTYPE)
    elif weighting == "unit":
        w = np.ones(slot.shape, dtype=DIST_DTYPE)
    else:
        inv_prio = arrays["ens.inv_prio"][None, :, None]
        w = np.where(in_tree, inv_prio, INF).min(axis=1)
    arrays["ens.slot_parent"][:, lo:hi] = slot
    arrays["ens.slot_weight"][:, lo:hi] = np.where(live, w, INF)
    arrays["ens.slot_count"][:, lo:hi] = cnt
    return int(live.sum())


def build_ensemble(
    trees: Sequence[SOSPTree],
    engine: Optional[Engine] = None,
    weighting: str = "balanced",
    priorities: Optional[Sequence[float]] = None,
) -> EnsembleGraph:
    """Merge the per-objective SOSP trees into the combined graph.

    Parameters
    ----------
    trees:
        The ``k`` updated SOSP trees (same source, same vertex count).
    engine:
        Execution engine; the per-vertex parent comparison is one
        parallel superstep over vertex slabs, as in the paper's OpenMP
        custom-reduction implementation.
    weighting:
        ``"balanced"`` | ``"priority"`` | ``"unit"`` (see module
        docstring).
    priorities:
        Required for ``"priority"``: positive per-objective priorities;
        higher priority ⇒ lower ensemble weight ⇒ more likely chosen.

    Returns
    -------
    :class:`EnsembleGraph`
    """
    if not trees:
        raise AlgorithmError("need at least one SOSP tree")
    k = len(trees)
    n = trees[0].num_vertices
    source = trees[0].source
    for t in trees:
        if t.num_vertices != n:
            raise AlgorithmError("trees span different vertex counts")
        if t.source != source:
            raise AlgorithmError(
                f"trees have different sources ({t.source} != {source})"
            )
    prio = resolve_weighting(weighting, priorities, k)
    eng = resolve_engine(engine)

    ens = EnsembleGraph(
        parents=np.empty((k, n), dtype=VERTEX_DTYPE),
        weights=np.empty((k, n), dtype=DIST_DTYPE),
        counts=np.empty((k, n), dtype=np.int64),
    )
    arrays: Dict[str, np.ndarray] = {
        "ens.parents": np.stack([t.parent for t in trees]).astype(
            np.int64, copy=False),
        "ens.dists": np.stack([t.dist for t in trees]),
        "ens.slot_parent": ens.parents,
        "ens.slot_weight": ens.weights,
        "ens.slot_count": ens.counts,
    }
    if prio is not None:
        arrays["ens.inv_prio"] = 1.0 / prio
    task = SlabTask(
        ref="repro.core.ensemble:_ensemble_slab",
        arrays=arrays,
        params={"weighting": weighting},
        writes=("ens.slot_parent", "ens.slot_weight", "ens.slot_count"),
    )
    live = parallel_for_slabs(
        eng, n, task, work_fn=lambda span, r: k * (span[1] - span[0]),
    )
    eng.charge(sum(live))
    return ens


# ----------------------------------------------------------------------
def _relax_slots_slab(
    arrays: Mapping[str, np.ndarray],
    params: Mapping[str, Any],
    lo: int,
    hi: int,
) -> int:
    """Slab kernel of a Step-3 superstep: relax frontier positions
    ``[lo, hi)`` through all their slots, pull-based; returns how many
    improved.  Frontier vertices partition across slabs, so the
    ``dist``/``improved`` writes are single-owner."""
    f = arrays["step3.frontier"][lo:hi]
    dist = arrays["step3.dist"]
    # np.take gathers whole columns ~4x faster than ``a[:, f]``
    ep = np.take(arrays["ens.slot_parent"], f, axis=1)
    ew = np.take(arrays["ens.slot_weight"], f, axis=1)
    best = (dist[ep] + ew).min(axis=0)
    better = best < dist[f]
    vv = f[better]
    dist[vv] = best[better]
    arrays["step3.improved"][vv] = True
    return int(vv.size)


def _witness_slab(
    arrays: Mapping[str, np.ndarray],
    params: Mapping[str, Any],
    lo: int,
    hi: int,
) -> None:
    """Slab kernel of Step 3's witness pass over vertices ``[lo, hi)``:
    each vertex's parent is its first (smallest-id) tight slot, one
    with ``dist[p] + w == dist[v]`` and ``dist[p] < dist[v]``."""
    ep = arrays["ens.slot_parent"][:, lo:hi]
    dist = arrays["step3.dist"]
    d, dp = dist[lo:hi], dist[ep]
    tight = (dp + arrays["ens.slot_weight"][:, lo:hi] == d) & (dp < d)
    slot = tight.argmax(axis=0)
    cols = np.arange(hi - lo)
    arrays["step3.parent"][lo:hi] = np.where(
        tight[slot, cols], ep[slot, cols], NO_PARENT
    )


def ensemble_bellman_ford(
    ensemble: EnsembleGraph,
    source: int,
    engine: Optional[Engine] = None,
) -> Tuple[FloatArray, IntArray]:
    """Algorithm 2, Step 3: the SOSP tree of the combined graph.

    A pull-based frontier Bellman-Ford on the slot matrices: each
    superstep's frontier is every vertex with a slot parent that
    improved in the previous one (``improved[parents].any(0)``), and
    engine slabs over the frontier take each vertex's best slot.  It
    runs to its fixpoint, which is exact for any positive weights, so
    ``dist`` is bitwise what Dijkstra computes on ``ensemble.csr``.
    Then one witness pass sets ``parent[v]`` to the smallest-id slot
    parent ``p`` with ``dist[p] + w == dist[v]`` and
    ``dist[p] < dist[v]`` — a function of ``dist`` alone, so neither
    the engine's schedule nor its slab sizes change it.  Returns
    ``(dist, parent)`` in the :func:`~repro.sssp.dijkstra.dijkstra`
    convention.
    """
    eng = resolve_engine(engine)
    k, n = ensemble.parents.shape
    # one spare entry for the dead-slot sentinel n: never improved,
    # always inf, so dead slots drop out of every gather
    dist = np.full(n + 1, INF, dtype=DIST_DTYPE)
    improved = np.zeros(n + 1, dtype=bool)
    dist[source] = 0.0
    improved[source] = True
    slots = {
        "ens.slot_parent": ensemble.parents,
        "ens.slot_weight": ensemble.weights,
        "step3.dist": dist,
    }
    while True:
        frontier = np.flatnonzero(improved[ensemble.parents].any(axis=0))
        if frontier.size == 0:
            break
        improved[:] = False
        task = SlabTask(
            ref="repro.core.ensemble:_relax_slots_slab",
            arrays={**slots, "step3.improved": improved,
                    "step3.frontier": frontier},
            writes=("step3.dist", "step3.improved"),
        )
        parallel_for_slabs(
            eng, int(frontier.size), task,
            work_fn=lambda span, r: k * (span[1] - span[0]),
            min_chunk=MIN_SLAB_ITEMS,
        )
    parent = np.empty(n, dtype=VERTEX_DTYPE)
    task = SlabTask(
        ref="repro.core.ensemble:_witness_slab",
        arrays={**slots, "step3.parent": parent},
        writes=("step3.parent",),
    )
    parallel_for_slabs(
        eng, n, task, work_fn=lambda span, r: k * (span[1] - span[0]),
    )
    return dist[:n], parent
