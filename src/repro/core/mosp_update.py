"""Algorithm 2: the single-MOSP update heuristic.

The full pipeline of §3.2, with per-step timing because the paper's
Figure 6 reports exactly this breakdown:

- **Step 1** — update every per-objective SOSP tree ``T_i`` with
  Algorithm 1 (sequentially over trees, as the paper's implementation
  does).
- **Step 2** — build the combined graph as the trees' stacked ``(k, n)``
  parent matrix, one slot per distinct parent
  (:func:`~repro.core.ensemble.build_ensemble`).
- **Step 3** — run a parallel Bellman-Ford over the combined graph
  ("we use a parallel Bellman-Ford algorithm implementation", §4;
  :func:`~repro.core.ensemble.ensemble_bellman_ford`, straight on the
  slot matrices) and re-assign the true multi-objective weights from
  ``G`` along the resulting tree to read off the MOSP distance vectors
  (:func:`_reassign_real_weights`, which finds every hop edge in the
  reverse CSR and COO tail of the graph the update read).

Steps 2–3 start from the trees on every call, with no state kept
between batches.  §3.2's "Probable Optimization" (repair the previous
combined-graph tree instead) is not implemented: a warm-ensemble
version was 7.7–35× slower in wall clock on its combined-graph stage
than these array passes (EXPERIMENTS.md, "§3.2 Probable Optimization:
measured, then deleted").

The result is one balanced (or priority-weighted) multi-objective
shortest path per destination — Pareto optimal whenever the per-
objective SOSP trees are unique (Theorems 1–3), and a certified-valid
path with per-objective cost ≥ the SOSP bound in general.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union,
)

import numpy as np

from repro.core.ensemble import (
    EnsembleGraph,
    build_ensemble,
    ensemble_bellman_ford,
)
from repro.core.sosp_update import UpdateStats, resolve_graph, sosp_update
from repro.core.tree import SOSPTree, child_csr
from repro.dynamic.changes import ChangeBatch
from repro.errors import AlgorithmError, NotReachableError
from repro.graph.csr import CSRGraph, gather_ranges
from repro.graph.digraph import DiGraph
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.parallel.api import Engine, resolve_engine, serial_spans
from repro.types import DIST_DTYPE, INF, NO_PARENT, FloatArray, IntArray

__all__ = ["mosp_update", "MOSPResult"]

_T = TypeVar("_T")


@dataclass
class MOSPResult:
    """Output of one :func:`mosp_update` call.

    Attributes
    ----------
    source:
        The common source of all trees.
    parent:
        ``(n,)`` parent array of the SOSP tree computed on the combined
        graph — the MOSP tree after real-weight reassignment.
    dist_vectors:
        ``(n, k)`` true multi-objective cost of each vertex's MOSP path
        (rows of ``inf`` for vertices outside the combined tree).
    ensemble:
        The combined graph (kept for inspection/ablation).
    update_stats:
        Per-tree Algorithm-1 stats from Step 1 (empty when no batch).
    step_seconds:
        Wall-clock seconds per pipeline step: keys ``"sosp_update_i"``
        for each objective ``i``, ``"ensemble"``, ``"bellman_ford"``,
        ``"reassign"`` — the Figure 6 breakdown.
    step_virtual_seconds:
        Same keys measured on the engine's virtual clock when the
        engine exposes one (``SimulatedEngine``); empty otherwise.
    """

    source: int
    parent: IntArray
    dist_vectors: FloatArray
    ensemble: EnsembleGraph
    update_stats: List[UpdateStats] = field(default_factory=list)
    step_seconds: Dict[str, float] = field(default_factory=dict)
    step_virtual_seconds: Dict[str, float] = field(default_factory=dict)

    def path_to(self, v: int) -> List[int]:
        """The MOSP path ``source → v``."""
        if not np.isfinite(self.dist_vectors[v]).all():
            raise NotReachableError(self.source, v)
        path = [v]
        while path[-1] != self.source:
            p = int(self.parent[path[-1]])
            if p == NO_PARENT:
                raise NotReachableError(self.source, v)
            path.append(p)
        path.reverse()
        return path

    def cost_to(self, v: int) -> FloatArray:
        """The ``k``-vector cost of the MOSP path to ``v``."""
        return self.dist_vectors[v]


def mosp_update(
    graph: Union[CSRGraph, DiGraph],
    trees: Sequence[SOSPTree],
    batch: Optional[ChangeBatch] = None,
    engine: Optional[Engine] = None,
    weighting: str = "balanced",
    priorities: Optional[Sequence[float]] = None,
    use_csr_kernels: bool = True,
    csr: Optional[CSRGraph] = None,
) -> MOSPResult:
    """Run Algorithm 2 over the (already applied) change batch.

    Parameters
    ----------
    graph:
        The updated multi-objective graph ``G_{t+1}`` (apply the batch
        first, exactly as for
        :func:`~repro.core.sosp_update.sosp_update`).  A
        :class:`~repro.graph.csr.CSRGraph` is read in place and never
        compacted (keep it current with ``graph.apply_batch(batch)``);
        a :class:`~repro.graph.digraph.DiGraph` is frozen once on entry.
        The one CSR feeds both the tree updates and the real-weight
        reassignment.
    trees:
        One SOSP tree per objective, all rooted at the same source,
        with ``trees[i].objective == i``.  Updated in place.
    batch:
        Change batch — any mix of insertions, deletions, and weight
        changes, which Step 1 hands to
        :func:`~repro.core.sosp_update.sosp_update` for every tree;
        ``None`` skips Step 1 (recombine-only mode, useful after
        external tree maintenance).
    engine:
        Execution engine shared by all steps.
    weighting, priorities:
        Ensemble weighting scheme (see
        :func:`~repro.core.ensemble.build_ensemble`).
    use_csr_kernels, csr:
        The legacy call shape ``(DiGraph, ..., use_csr_kernels=True,
        csr=maintained)``, kept only because ``perfbench/workloads.py``
        still passes it; both are removed by the next benchmark change.
        ``use_csr_kernels`` is ignored (the CSR kernels are the only
        path).  A given ``csr`` is the graph the update reads, and a
        ``graph`` it does not mirror is refused
        (:func:`~repro.core.sosp_update.check_snapshot`).

    Returns
    -------
    :class:`MOSPResult`

    Examples
    --------
    >>> import numpy as np
    >>> from repro.graph import DiGraph
    >>> from repro.core import SOSPTree, mosp_update
    >>> g = DiGraph(3, k=2)
    >>> _ = g.add_edge(0, 1, (1.0, 4.0)); _ = g.add_edge(1, 2, (1.0, 4.0))
    >>> _ = g.add_edge(0, 2, (4.0, 1.0))
    >>> trees = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
    >>> r = mosp_update(g, trees)
    >>> r.path_to(2) in ([0, 1, 2], [0, 2])
    True
    """
    if not trees:
        raise AlgorithmError("mosp_update needs at least one SOSP tree")
    snapshot = resolve_graph(graph, trees[0], csr)
    k = snapshot.k
    if len(trees) != k:
        raise AlgorithmError(
            f"graph has k={k} objectives but {len(trees)} trees were given"
        )
    for i, t in enumerate(trees):
        if t.objective != i:
            raise AlgorithmError(
                f"trees[{i}].objective == {t.objective}; trees must be "
                "ordered by objective"
            )
    source = trees[0].source
    eng = resolve_engine(engine)
    step_seconds: Dict[str, float] = {}
    step_virtual_seconds: Dict[str, float] = {}
    timed = _make_timed(eng, step_seconds, step_virtual_seconds)

    # ------------------------------------------------------ step 1
    update_stats: List[UpdateStats] = []
    if batch is not None and batch.num_changes:
        m = get_metrics()
        for i in range(k):
            stats = timed(
                f"sosp_update_{i}",
                lambda i=i: sosp_update(
                    snapshot, trees[i], batch, engine=eng
                ),
            )
            if m.enabled:
                m.counter(
                    "mosp_tree_updates_total",
                    "per-objective tree updates (Algorithm-2 Step 1)",
                ).inc()
            update_stats.append(stats)

    # ------------------------------------------------------ step 2
    ensemble = timed(
        "ensemble",
        lambda: build_ensemble(trees, engine=eng, weighting=weighting,
                               priorities=priorities),
    )

    # ------------------------------------------------------ step 3
    # pull-based frontier Bellman-Ford on the slot matrices, matching
    # the two-queue implementations the paper cites
    dist_c, parent_c = timed(
        "bellman_ford",
        lambda: ensemble_bellman_ford(ensemble, source, engine=eng),
    )

    dist_vectors = np.full((snapshot.n, k), INF, dtype=DIST_DTYPE)
    timed("reassign", lambda: _reassign_real_weights(
        snapshot, source, dist_c, parent_c, dist_vectors, trees,
    ))
    eng.charge(int(np.isfinite(dist_c).sum()))
    return MOSPResult(
        source=source,
        parent=parent_c,
        dist_vectors=dist_vectors,
        ensemble=ensemble,
        update_stats=update_stats,
        step_seconds=step_seconds,
        step_virtual_seconds=step_virtual_seconds,
    )


# ----------------------------------------------------------------------
def _make_timed(
    eng: Engine,
    seconds: Dict[str, float],
    virtual_seconds: Dict[str, float],
) -> Callable[[str, Callable[[], _T]], _T]:
    """Build the pipeline-step timer of :func:`mosp_update`.

    Each call ``timed(key, fn)`` runs ``fn`` inside a tracer span named
    ``"mosp_update.<key>"`` and records the span's elapsed wall time in
    ``seconds[key]``; engines with a virtual clock additionally
    populate ``virtual_seconds``.
    """
    tracer = get_tracer()
    vt = getattr(eng, "virtual_time", None)

    def timed(key: str, fn: Callable[[], _T]) -> _T:
        nonlocal vt
        with tracer.span(f"mosp_update.{key}") as sp:
            out = fn()
        seconds[key] = sp.elapsed
        if vt is not None:
            now = eng.virtual_time  # type: ignore[attr-defined]
            virtual_seconds[key] = now - vt
            vt = now
        return out

    return timed


# ----------------------------------------------------------------------
def _certified_weight(
    parallels: FloatArray,
    u: int,
    v: int,
    trees: Optional[Sequence[SOSPTree]] = None,
) -> FloatArray:
    """The weight vector used when re-assigning a hop ``(u, v)`` that
    has several live parallel edges (rows of ``parallels``).

    The hop must be priced with an edge some per-objective tree
    actually certifies: the ensemble contains ``(u, v)`` because
    ``trees[i].parent[v] == u`` for at least one objective ``i``, and
    that tree's certified edge is the parallel edge with the minimal
    ``i``-th weight component (the one its relaxations used).  Pricing
    the hop with a *different* parallel edge can fabricate a dominated
    path vector even when every tree is unique, which is exactly the
    precondition of the paper's Pareto-optimality theorem.  Among the
    certified candidates (or all parallels, when no tree owns the hop)
    we take the lexicographically smallest vector — a deterministic
    pick of a real edge, independent of the row order.
    """
    candidates = rows = list(parallels)
    if trees is not None:
        certified = [
            min(rows, key=lambda w: (w[t.objective], *tuple(w)))
            for t in trees
            if t.parent[v] == u
        ]
        if certified:
            candidates = certified
    return min(candidates, key=tuple)


def _hop_rows(
    graph: CSRGraph, kids: IntArray, par: IntArray
) -> Tuple[IntArray, IntArray]:
    """Every base row ``(par[j], kids[j])`` of ``graph`` as ``(j, row)``
    pairs (``row`` a forward edge id), tombstones included.

    One compare over each kid's reverse-CSR slice, chunked like a
    one-thread slab superstep (:func:`~repro.parallel.api.serial_spans`)
    so no temporary outgrows the slab cap.
    """
    rev_indptr = graph.rev_indptr
    at_parts: List[IntArray] = []
    row_parts: List[IntArray] = []
    for lo, hi in serial_spans(kids.size):
        vs = kids[lo:hi]
        idx, seg = gather_ranges(rev_indptr[vs], rev_indptr[vs + 1])
        at = np.repeat(np.arange(lo, hi), np.diff(seg))
        hit = np.flatnonzero(graph.rev_indices[idx] == par[at])
        at_parts.append(at[hit])
        row_parts.append(graph.edge_perm[idx[hit]])
    return np.concatenate(at_parts), np.concatenate(row_parts)


def _reassign_real_weights(
    graph: CSRGraph,
    source: int,
    dist_c: FloatArray,
    parent_c: IntArray,
    out: FloatArray,
    trees: Optional[Sequence[SOSPTree]] = None,
) -> None:
    """Algorithm 2's final move: sum the original multi-weights down
    the combined-graph SOSP tree ``parent_c`` into ``out``.

    ``graph`` is the :class:`~repro.graph.csr.CSRGraph` of ``G`` the
    update read.  Every reached vertex ``v`` (finite ``dist_c``, a
    parent, not the source) has a hop edge ``(parent_c[v], v)``, found
    by one compare over ``v``'s reverse-CSR slice
    (``rev_indices == parent_c[v]``, :func:`_hop_rows`) and one over
    the COO tail (``tail_src == parent_c[tail_dst]``); tombstoned
    (``inf``) rows are skipped.  A hop with several live parallel edges
    is priced by :func:`_certified_weight` (``trees`` are the
    per-objective SOSP trees the ensemble was built from); a hop with
    none raises :class:`~repro.errors.AlgorithmError`.  The vectors
    then accumulate one tree level at a time from the source,
    ``out[v] = out[p] + hop``, the same single addition per vertex as
    a walk in distance order, so the sums are bitwise those of that
    walk.  Vertices whose parent chain does not reach the source keep
    their ``inf`` rows.
    """
    out[source] = 0.0
    reached = np.isfinite(dist_c) & (parent_c != NO_PARENT)
    reached[source] = False
    if not reached.any():
        return
    # children grouped by parent: a child CSR for the level walk
    cptr, kids = child_csr(parent_c, reached)
    par = parent_c[kids].astype(np.int64)

    # hop lookup: live base rows, then live tail rows, as (kid position,
    # row) pairs
    pos, rows = _hop_rows(graph, kids, par)
    live = np.isfinite(graph.weights[rows, 0])
    pos, rows = pos[live], rows[live]
    tdst = graph.tail_dst
    trows = np.flatnonzero(
        reached[tdst] & (graph.tail_src == parent_c[tdst])
        & np.isfinite(graph.tail_weights[:, 0])
    )
    position = np.empty(parent_c.shape[0], dtype=np.int64)
    position[kids] = np.arange(kids.size)
    tpos = position[tdst[trows]]
    count = np.bincount(np.concatenate((pos, tpos)), minlength=kids.size)
    missing = np.flatnonzero(count == 0)
    if missing.size:
        j = int(missing[0])
        raise AlgorithmError(
            f"combined-tree edge ({int(par[j])}, {int(kids[j])}) does not "
            "exist in the graph"
        )
    # one gather of base rows; a hop with no base row gathers row 0,
    # then takes its tail row
    hop_row = np.zeros(kids.size, dtype=np.int64)
    hop_row[pos] = rows
    hop = (np.take(graph.weights, hop_row, axis=0) if graph.m
           else np.empty((kids.size, graph.k), dtype=DIST_DTYPE))
    hop[tpos] = graph.tail_weights[trows]
    multi = np.flatnonzero(count > 1)
    if multi.size:
        b, t = count[pos] > 1, count[tpos] > 1
        hop_of = np.concatenate((pos[b], tpos[t]))
        w = np.concatenate(
            (graph.weights[rows[b]], graph.tail_weights[trows[t]])
        )
        order = np.argsort(hop_of, kind="stable")
        groups = np.split(order, np.cumsum(count[multi])[:-1])
        for j, parallels in zip(multi.tolist(), groups):
            hop[j] = _certified_weight(
                w[parallels], int(par[j]), int(kids[j]), trees
            )

    # level by level from the source
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        idx, _ = gather_ranges(cptr[frontier], cptr[frontier + 1])
        frontier = kids[idx]
        out[frontier] = np.take(out, par[idx], axis=0) + np.take(hop, idx, axis=0)
