"""Algorithm 1: parallel SOSP update for any batch of edge changes.

The three steps of the paper, §3.1, preceded by the invalidation sweep
that extends them to deletions and weight raises (SSSP-Del; the edge
deletion adaptation sketched in the paper's conclusion):

- **Step D — invalidate.**  A deletion or weight *raise* on a tree edge
  ``(u, v)`` strands ``v``'s entire subtree: every member's distance
  becomes ``inf`` and its parent pointer is cleared.  The dirty-root
  predicate is one-sided — ``parent[v] == u`` and the new certified
  bound ``dist[u] + min_w(u, v)`` strictly exceeds ``dist[v]`` — so
  weight *drops* on tree edges never invalidate (the old distance is
  still a valid upper bound and Step 1 lowers it instead).  Soundness:
  when a vertex is *not* invalidated, a live path of length
  ``≤ dist[v]`` still exists, so every descendant's stored distance
  remains a valid upper bound.  An insert-only batch has no dirty set.
- **Steps 0 and 1 — Process changed edges**: the paper groups the
  changed edges by destination so that each destination has one owner,
  which takes the minimum over its candidate in-edges.  Here each
  destination pulls *all* of its live in-edges: Step 1's frontier is
  every head of an inserted or re-weighted record plus every vertex
  Step D invalidated, once each, and one relaxation superstep
  (:func:`~repro.core.kernels.relax_superstep`, the Step-2 superstep)
  relaxes it.  Because the pull reads the live graph, duplicate and
  self-cancelling edits of one edge and parallel edges resolve to the
  truth, and an invalidated vertex sees its whole connection boundary
  (SSSP-Del's repair seeding).  One owner per vertex means a single
  pass suffices — the paper's improvement over the
  iterate-until-consistent approach of prior work ([17]).
- **Step 2 — Propagate the update**: while the affected set is
  non-empty, gather the unique out-neighbours ``N`` of the affected
  vertices; in parallel each ``v ∈ N`` pulls its predecessors and
  relaxes; improved vertices become the next affected set
  (:func:`~repro.core.kernels.propagate_csr`).  The paper's filter to
  *marked* (already affected) predecessors is dropped: after Step 1 an
  unmarked predecessor can neither improve nor tie a vertex, so the
  filter changes no distance and no parent (``docs/ALGORITHMS.md``).
  Completeness: every edge violated after the batch either ends at a
  Step-1 head or flows out of a vertex the update improved, so the
  fixpoint equals a from-scratch recompute.

Every step runs as vectorised kernels over the
:class:`~repro.graph.csr.CSRGraph` of the updated graph (see
:func:`resolve_graph`), on every engine backend.  The function mutates
the tree in place and leaves it a correct SSSP solution of the updated
graph (certified by the differential-oracle suite).  The update
touches only the affected region — its cost is O(|ΔE| + affected
subgraph), not O(|E|).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

import repro.core.kernels as kernels
from repro.core.tree import SOSPTree
from repro.dynamic.changes import KIND_DELETE, ChangeBatch
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.parallel.api import Engine, resolve_engine
from repro.types import INF, NO_PARENT, IntArray

__all__ = ["sosp_update", "UpdateStats"]


@dataclass
class UpdateStats:
    """Execution profile of one :func:`sosp_update` call.

    Attributes
    ----------
    dirty_roots:
        Tree edges whose deletion / weight raise cut a subtree loose
        (Step D; 0 on an insert-only batch).
    invalidated:
        Vertices reset to ``inf`` in Step D (subtree members).
    seed_stimuli:
        Step 1's frontier: the distinct heads of inserted and
        re-weighted records plus the invalidated vertices, each of
        which pulls all its live in-edges.
    affected_initial:
        Vertices improved directly in Step 1.
    affected_total:
        Total improvement events across both steps (a vertex improved
        twice counts twice).
    step1_passes:
        Step-1 supersteps (always 1: one owner per destination makes
        Step 1 a single race-free pass).
    iterations:
        Step 2 frontier iterations.
    relaxations:
        Edges examined across the whole update (the work-unit count).
    frontier_sizes:
        ``|N|`` per Step 2 iteration.
    affected_vertices:
        The distinct vertices whose distance (and hence possibly
        parent) changed.  Its size against ``affected_total`` gives
        the wasted-improvement count
        (``sosp_wasted_improvements_total``), and benchmarks read it as
        the improved-vertex count.
    step_seconds:
        Wall-clock seconds per step: ``"invalidate"`` (Step D),
        ``"step1"`` (changed-edge relaxation) and ``"step2"``
        (frontier propagation).
    """

    dirty_roots: int = 0
    invalidated: int = 0
    seed_stimuli: int = 0
    affected_initial: int = 0
    affected_total: int = 0
    step1_passes: int = 0
    iterations: int = 0
    relaxations: int = 0
    frontier_sizes: List[int] = field(default_factory=list)
    affected_vertices: set = field(default_factory=set)
    step_seconds: Dict[str, float] = field(default_factory=dict)


def sosp_update(
    graph: Union[CSRGraph, DiGraph],
    tree: SOSPTree,
    batch: ChangeBatch,
    engine: Optional[Engine] = None,
) -> UpdateStats:
    """Repair ``tree`` in place after ``batch``.

    Parameters
    ----------
    graph:
        The **updated** graph ``G_{t+1}`` — the batch must already have
        been applied; Step 2 needs the new edges visible in the
        adjacency.  A :class:`~repro.graph.csr.CSRGraph` is read in
        place and never compacted (keep it current with
        ``graph.apply_batch(batch)``); a
        :class:`~repro.graph.digraph.DiGraph` is frozen on entry (one
        O(|E|) pass).
    tree:
        The SOSP tree of ``G_t``; mutated into the tree of ``G_{t+1}``.
    batch:
        Any interleaving of insertion, deletion, and weight-change
        records, including duplicate and self-cancelling edits of one
        edge (Step 1 reads the live graph, not the records' weights).
    engine:
        Execution engine (``None`` = serial).  Each superstep covers its
        Step-1 or Step-2 frontier with contiguous slabs, one
        owner per vertex, matching the paper's OpenMP scheduling.  A
        :class:`~repro.parallel.checked.CheckedEngine` adds the
        vertex-ownership assertion
        (:class:`~repro.parallel.atomics.OwnershipTracker`).

    Returns
    -------
    :class:`UpdateStats`
    """
    snapshot = resolve_graph(graph, tree)
    eng = resolve_engine(engine)
    stats = UpdateStats()
    dist = tree.dist
    parent = tree.parent
    objective = tree.objective
    tracer = get_tracer()

    with tracer.span(
        "sosp_update.invalidate",
        deletions=int(batch.num_deletions),
        weight_changes=int(batch.num_weight_changes),
    ) as sp_inv:
        dirty = _invalidate(snapshot, tree, batch, stats)
        if dirty.size:
            dist[dirty] = INF
            parent[dirty] = NO_PARENT
            eng.charge(int(dirty.size))
        sp_inv.set(invalidated=stats.invalidated,
                   dirty_roots=stats.dirty_roots)
    stats.step_seconds["invalidate"] = sp_inv.elapsed

    with tracer.span(
        "sosp_update.step1", kernel="csr", batch_size=int(batch.num_changes)
    ) as sp1:
        heads = _step1_frontier(snapshot.n, batch, dirty)
        stats.seed_stimuli = int(heads.size)
        affected_arr, scanned = kernels.relax_superstep(
            snapshot, dist, parent, heads, objective, eng
        )
        sp1.set(stimuli=stats.seed_stimuli, affected=int(affected_arr.size))
    stats.step_seconds["step1"] = sp1.elapsed
    stats.step1_passes = 1
    stats.relaxations += scanned
    stats.affected_initial = int(affected_arr.size)
    stats.affected_total = int(affected_arr.size)
    stats.affected_vertices.update(affected_arr.tolist())

    with tracer.span("sosp_update.step2", kernel="csr") as sp2:
        kernels.propagate_csr(
            snapshot, dist, parent, affected_arr,
            objective=objective, engine=eng, stats=stats,
        )
    stats.step_seconds["step2"] = sp2.elapsed
    _publish_stats(stats, batch)
    return stats


def apply_mixed_batch(
    graph: Union[CSRGraph, DiGraph], tree: SOSPTree, batch: ChangeBatch,
    engine: Optional[Engine] = None, use_csr_kernels: bool = True,
    csr: Optional[CSRGraph] = None,
) -> UpdateStats:
    """Legacy name and call shape of :func:`sosp_update`, kept only for
    ``perfbench/``'s ``(DiGraph, ..., csr=maintained)``; it goes with the
    next benchmark change.  ``use_csr_kernels`` is ignored."""
    return sosp_update(resolve_graph(graph, tree, csr), tree, batch, engine)


def resolve_graph(
    graph: Union[CSRGraph, DiGraph],
    tree: SOSPTree,
    csr: Optional[CSRGraph] = None,
) -> CSRGraph:
    """The :class:`~repro.graph.csr.CSRGraph` an update of ``tree`` reads.

    A ``CSRGraph`` is returned as is — never compacted, so an update
    stays O(|batch| + affected) on a CSR its owner keeps current with
    :meth:`~repro.graph.csr.CSRGraph.apply_batch`.  A ``DiGraph`` is
    frozen (one O(|E|) pass).  ``csr`` is the legacy call shape
    ``(DiGraph, ..., csr=maintained)`` of :func:`apply_mixed_batch` and
    :func:`~repro.core.mosp_update.mosp_update`: the maintained CSR is
    the graph read, once :func:`check_snapshot` has compared it with
    the DiGraph.  A ``tree`` that does not span the graph is refused.
    """
    if csr is None:
        snapshot = (graph if isinstance(graph, CSRGraph)
                    else CSRGraph.from_digraph(graph))
    else:
        check_snapshot(csr, graph)  # type: ignore[arg-type]
        snapshot = csr
    if tree.num_vertices != snapshot.n:
        raise AlgorithmError(
            f"tree spans {tree.num_vertices} vertices, graph has "
            f"{snapshot.n}; rebuild or grow the tree first"
        )
    return snapshot


def check_snapshot(snapshot: CSRGraph, graph: DiGraph) -> None:
    """Refuse a CSR snapshot that does not mirror ``graph``.

    Compares vertex and live edge counts — the cheap signature of a
    snapshot that missed a batch.  Runs only for the legacy ``csr=``
    argument (see :func:`resolve_graph`).
    """
    if snapshot.n != graph.num_vertices:
        raise AlgorithmError(
            f"CSR snapshot spans {snapshot.n} vertices, graph has "
            f"{graph.num_vertices}"
        )
    if snapshot.num_edges != graph.num_edges:
        raise AlgorithmError(
            f"CSR snapshot has {snapshot.num_edges} edges, graph has "
            f"{graph.num_edges}: pair batch.apply_to(graph) with "
            f"snapshot.apply_batch(batch) to keep them in sync"
        )


# ----------------------------------------------------------------------
def _invalidate(
    snapshot: CSRGraph,
    tree: SOSPTree,
    batch: ChangeBatch,
    stats: UpdateStats,
) -> IntArray:
    """Step D: collect the sorted dirty set without mutating the tree yet.

    A deletion or weight-change record ``(u, v)`` cuts ``v`` loose iff
    ``v``'s parent pointer crosses that edge and no surviving parallel
    ``(u, v)`` edge certifies a distance ``≤ dist[v]``.  The test is
    strictly one-sided (``nd > dist[v]``): a weight drop on the parent
    edge leaves ``dist[v]`` a valid upper bound, and Step 1, which pulls
    ``v``'s live in-edges, lowers it without the invalidation churn.
    The surviving weights come from the updated snapshot in one
    vectorised lookup
    (:meth:`~repro.graph.csr.CSRGraph.min_weight_between`).  The roots'
    subtrees are swept over the tree's child CSR
    (:meth:`~repro.core.tree.SOSPTree.subtree`), built only when some
    root exists.
    """
    dist = tree.dist
    parent = tree.parent
    objective = tree.objective

    del_src, del_dst = batch.delete_records()
    wc_src, wc_dst, _wc_w = batch.weight_change_records()
    src = np.concatenate((del_src, wc_src))
    dst = np.concatenate((del_dst, wc_dst))
    # every surviving record of one v names the same u = parent[v], so
    # one test per distinct v decides for all of them
    cand = (parent[dst] == src) & np.isfinite(dist[dst])
    v_cand = np.unique(dst[cand])
    if not v_cand.size:
        return v_cand
    u_cand = parent[v_cand]
    nd = dist[u_cand] + snapshot.min_weight_between(
        u_cand, v_cand, objective
    )
    old = dist[v_cand]
    roots = v_cand[(nd > old) & ~np.isclose(nd, old)]
    stats.dirty_roots = int(roots.size)
    if not roots.size:
        return roots
    dirty = tree.subtree(roots)
    stats.invalidated = int(dirty.size)
    return dirty


def _step1_frontier(n: int, batch: ChangeBatch, dirty: IntArray) -> IntArray:
    """Step 1's frontier: every head of an inserted or re-weighted
    record and every vertex Step D invalidated, once each, ascending.

    A deletion's head needs no pull: unless Step D invalidated it, a
    live path certifies its distance (and then its parent) as before.
    """
    hit = np.zeros(n, dtype=bool)
    hit[batch.dst[batch.kind != KIND_DELETE]] = True
    hit[dirty] = True
    return np.flatnonzero(hit)


def _publish_stats(stats: UpdateStats, batch: ChangeBatch) -> None:
    """Publish one finished Algorithm-1 run to the metrics registry.

    Exactly one call per :func:`sosp_update` invocation, fed from the
    already-accumulated :class:`UpdateStats` — the inner loops never
    touch the registry, so the disabled-registry path costs a single
    attribute check here.
    """
    m = get_metrics()
    if not m.enabled:
        return
    m.counter("sosp_updates_total", "Algorithm-1 invocations").inc()
    m.counter("sosp_relaxations_total", "edges examined").inc(
        stats.relaxations
    )
    m.counter("sosp_step1_passes_total",
              "Step-1 supersteps").inc(stats.step1_passes)
    m.counter("sosp_improvements_total",
              "distance improvements applied").inc(stats.affected_total)
    m.counter("sosp_wasted_improvements_total",
              "improvements overwritten later in the same update").inc(
        stats.affected_total - len(stats.affected_vertices)
    )
    m.counter(
        "sosp_invalidated_total",
        "vertices invalidated by deleted/raised tree edges",
    ).inc(stats.invalidated)
    m.histogram("sosp_batch_size", "records per batch").observe(
        batch.num_changes
    )
    m.histogram("sosp_step1_stimuli",
                "Step-1 frontier vertices per update").observe(
        stats.seed_stimuli
    )
    m.histogram("sosp_step2_iterations",
                "Step-2 frontier waves per update").observe(stats.iterations)
    h = m.histogram("sosp_frontier_size", "|N| per Step-2 iteration")
    for size in stats.frontier_sizes:
        h.observe(size)
