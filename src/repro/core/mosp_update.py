"""Algorithm 2: the single-MOSP update heuristic.

The full pipeline of §3.2, with per-step timing because the paper's
Figure 6 reports exactly this breakdown:

- **Step 1** — update every per-objective SOSP tree ``T_i`` with
  Algorithm 1 (sequentially over trees, as the paper's implementation
  does).
- **Step 2** — build the combined graph
  (:func:`~repro.core.ensemble.build_ensemble`).
- **Step 3** — run a parallel Bellman-Ford over the combined graph
  ("we use a parallel Bellman-Ford algorithm implementation", §4) and
  re-assign the true multi-objective weights from ``G`` along the
  resulting tree to read off the MOSP distance vectors.

The result is one balanced (or priority-weighted) multi-objective
shortest path per destination — Pareto optimal whenever the per-
objective SOSP trees are unique (Theorems 1–3), and a certified-valid
path with per-objective cost ≥ the SOSP bound in general.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

import repro.core.kernels as kernels
from repro.core.ensemble import EnsembleGraph, build_ensemble
from repro.core.sosp_update import UpdateStats, resolve_graph, sosp_update
from repro.core.tree import SOSPTree, child_csr
from repro.dynamic.changes import ChangeBatch
from repro.errors import AlgorithmError, NotReachableError
from repro.graph.csr import CSRGraph, live_edge_arrays
from repro.graph.digraph import DiGraph
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.parallel.api import Engine, resolve_engine
from repro.types import DIST_DTYPE, INF, NO_PARENT, FloatArray, IntArray

__all__ = ["mosp_update", "MOSPResult"]


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
        changes (mixed batches route Step 1 through
        :func:`~repro.core.fully_dynamic.apply_mixed_batch`); ``None``
        skips Step 1 (recombine-only mode, useful after external tree
        maintenance).
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
    result = MOSPResult(
        source=source,
        parent=np.full(snapshot.n, NO_PARENT, dtype=np.int64),
        dist_vectors=np.full((snapshot.n, k), INF, dtype=DIST_DTYPE),
        ensemble=None,  # type: ignore[arg-type]
    )

    timed = _make_timed("mosp_update", result, eng)

    # ------------------------------------------------------ step 1
    if batch is not None and batch.num_changes:
        for i in range(k):
            stats, _touched = timed(
                f"sosp_update_{i}",
                lambda i=i: _update_tree_step1(
                    trees[i], batch, eng, snapshot
                ),
            )
            _record_tree_stats(result, stats)

    # ------------------------------------------------------ step 2
    ensemble = timed(
        "ensemble",
        lambda: build_ensemble(trees, engine=eng, weighting=weighting,
                               priorities=priorities),
    )
    result.ensemble = ensemble

    # ------------------------------------------------------ step 3
    # work-efficient frontier Bellman-Ford on the combined graph,
    # matching the two-queue implementations the paper cites
    dist_c, parent_c = timed(
        "bellman_ford",
        lambda: kernels.frontier_bellman_ford_csr(
            ensemble.csr, source, engine=eng
        ),
    )
    result.parent = parent_c

    timed("reassign", lambda: _reassign_real_weights(
        live_edge_arrays(snapshot), source, dist_c, parent_c,
        result.dist_vectors, trees,
    ))
    eng.charge(int(np.isfinite(dist_c).sum()))
    return result


# ----------------------------------------------------------------------
def _make_timed(prefix: str, result: MOSPResult, eng: Engine):
    """Build the pipeline-step timer shared by :func:`mosp_update` and
    :class:`~repro.core.incremental_ensemble.IncrementalMOSP`.

    Each call ``timed(key, fn)`` runs ``fn`` inside a tracer span named
    ``"<prefix>.<key>"`` and records the span's elapsed wall time in
    ``result.step_seconds[key]``; engines with a virtual clock
    additionally populate ``result.step_virtual_seconds``.
    """
    tracer = get_tracer()
    vt = getattr(eng, "virtual_time", None)

    def timed(key, fn):
        nonlocal vt
        with tracer.span(f"{prefix}.{key}") as sp:
            out = fn()
        result.step_seconds[key] = sp.elapsed
        if vt is not None:
            now = eng.virtual_time  # type: ignore[attr-defined]
            result.step_virtual_seconds[key] = now - vt
            vt = now
        return out

    return timed


def _update_tree_step1(
    tree: SOSPTree,
    batch: ChangeBatch,
    eng: Engine,
    csr: CSRGraph,
) -> Tuple[Optional[UpdateStats], Set[int]]:
    """Algorithm-2 Step 1 for one per-objective tree.

    Dispatches to the unified fully dynamic pipeline
    (:func:`~repro.core.fully_dynamic.apply_mixed_batch`) when the
    batch carries deletions or weight changes, otherwise to plain
    Algorithm 1 — both over the updated graph ``csr``.
    Returns ``(stats, touched)`` where ``stats`` is the Algorithm-1
    :class:`UpdateStats` (or its mixed-pipeline subclass) and
    ``touched`` is the set of vertices whose tree entry may have
    changed.
    """
    if batch.num_deletions or batch.num_weight_changes:
        from repro.core.fully_dynamic import apply_mixed_batch

        mx = apply_mixed_batch(csr, tree, batch, engine=eng)
        return mx, mx.touched_vertices
    stats = sosp_update(csr, tree, batch, engine=eng)
    return stats, stats.affected_vertices


def _record_tree_stats(
    result: MOSPResult, stats: Optional[UpdateStats]
) -> None:
    """The single place per-tree Step-1 stats enter a result.

    Both Algorithm-2 drivers (batch and incremental) must call this
    exactly once per tree per update — the ``mosp_tree_updates_total``
    counter certifies that, and ``update_stats`` gains at most one
    entry (none when the fully dynamic path produced no insert phase).
    """
    m = get_metrics()
    if m.enabled:
        m.counter(
            "mosp_tree_updates_total",
            "per-objective tree updates (Algorithm-2 Step 1)",
        ).inc()
    if stats is not None:
        result.update_stats.append(stats)


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


def _reassign_real_weights(
    edges: Tuple[IntArray, IntArray, FloatArray],
    source: int,
    dist_c: FloatArray,
    parent_c: IntArray,
    out: FloatArray,
    trees: Optional[Sequence[SOSPTree]] = None,
) -> None:
    """Algorithm 2's final move: sum the original multi-weights down
    the combined-graph SOSP tree ``parent_c`` into ``out``.

    ``edges`` are the live ``(src, dst, weights)`` arrays of ``G``
    (:func:`~repro.graph.csr.live_edge_arrays` of its snapshot).
    Every reached vertex ``v`` (finite ``dist_c``, a parent, not the
    source) has a hop edge ``(parent_c[v], v)``: the hops are sorted by
    that key and every live edge is searched among them in one pass.  A hop with several
    live parallel edges is priced by :func:`_certified_weight`
    (``trees`` are the per-objective SOSP trees the ensemble was built
    from); a hop with none raises :class:`~repro.errors.AlgorithmError`.
    The vectors then accumulate one tree level at a time from the
    source, ``out[v] = out[p] + hop``, the same single addition per
    vertex as a walk in distance order, so the sums are bitwise those
    of that walk.  Vertices whose parent chain does not reach the
    source keep their ``inf`` rows.
    """
    n = parent_c.shape[0]
    out[source] = 0.0
    reached = np.isfinite(dist_c) & (parent_c != NO_PARENT)
    reached[source] = False
    if not reached.any():
        return
    # children grouped by parent (ascending within a group): a child CSR
    # for the level walk whose (parent, child) keys come out sorted
    cptr, kids = child_csr(parent_c, reached)
    par = parent_c[kids].astype(np.int64)

    # hop lookup: search every live edge among the sorted hop keys
    src, dst, w = edges
    hkey = par * n + kids
    ekey = src * n + dst
    pos = np.minimum(np.searchsorted(hkey, ekey), hkey.size - 1)
    hit = np.flatnonzero(hkey[pos] == ekey)  # live edges that are hops
    pos = pos[hit]
    count = np.bincount(pos, minlength=hkey.size)
    missing = np.flatnonzero(count == 0)
    if missing.size:
        j = int(missing[0])
        raise AlgorithmError(
            f"combined-tree edge ({int(par[j])}, {int(kids[j])}) does not "
            "exist in the graph"
        )
    hop = np.empty((hkey.size, w.shape[1]), dtype=w.dtype)
    hop[pos] = w[hit]
    multi = np.flatnonzero(count > 1)
    if multi.size:
        rows = np.flatnonzero(count[pos] > 1)
        rows = hit[rows[np.argsort(pos[rows], kind="stable")]]
        groups = np.split(rows, np.cumsum(count[multi])[:-1])
        for j, parallels in zip(multi.tolist(), groups):
            hop[j] = _certified_weight(
                w[parallels], int(par[j]), int(kids[j]), trees
            )

    # level by level from the source
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        idx, _ = kernels.gather_ranges(cptr[frontier], cptr[frontier + 1])
        frontier = kids[idx]
        out[frontier] = out[par[idx]] + hop[idx]
