"""The unified fully dynamic SOSP pipeline for mixed change batches.

:func:`apply_mixed_batch` consumes one :class:`~repro.dynamic.changes.ChangeBatch`
interleaving insertions, deletions, and weight changes and repairs the
SOSP tree in a single invalidate / seed / propagate pass — the
SSSP-Del-style generalisation of the paper's insertion-only Algorithm 1
to the edge deletions its conclusion sketches:

- **Step D — invalidate.**  A deletion or weight *raise* on a tree edge
  ``(u, v)`` strands ``v``'s entire subtree: every member's distance
  becomes ``inf`` and its parent pointer is cleared.  The dirty-root
  predicate is one-sided — ``parent[v] == u`` and the new certified
  bound ``dist[u] + min_w(u, v)`` strictly exceeds ``dist[v]`` — so
  weight *drops* on tree edges never invalidate (the old distance is
  still a valid upper bound and Step I lowers it instead).  Soundness:
  when a vertex is *not* invalidated, a live path of length
  ``≤ dist[v]`` still exists, so every descendant's stored distance
  remains a valid upper bound.
- **Step I — seed.**  One batched group relaxation
  (:func:`~repro.core.kernels.relax_batch_groups`) over the union of
  (a) one stimulus per distinct inserted / weight-changed ``(u, v)``
  pair, normalised to the minimum *live* weight so duplicate and
  self-cancelling edits of one edge collapse to the truth, and (b) the
  whole connection boundary of the dirty set — every in-edge of every
  invalidated vertex, gathered vectorised through the reverse CSR
  (:func:`~repro.core.kernels.gather_in_edges_csr`).  Dirty
  predecessors contribute ``inf`` candidates, which the segmented
  argmin ignores.
- **Step 2/3 — propagate.**  The ordinary Algorithm-1 Step-2 frontier
  repairs insertion-affected and deletion-orphaned vertices together
  (:func:`~repro.core.kernels.propagate_csr`).  Completeness: every edge
  violated after the batch either was seeded directly (inserted /
  re-weighted edges, dirty boundaries) or flows out of a vertex the
  pipeline improved — and improved vertices are marked and their
  out-neighbours re-enter the frontier, so the fixpoint equals a
  from-scratch recompute (certified by the differential-oracle suite).

The pipeline runs unchanged on every engine backend — serial,
shared-memory slabs, simulated, and their checked wrappers —
because all mutation happens inside the existing slab kernels, over
the :class:`~repro.graph.csr.CSRGraph` of the updated graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

import repro.core.kernels as kernels
from repro.core.sosp_update import UpdateStats, resolve_graph
from repro.core.tree import SOSPTree
from repro.dynamic.changes import ChangeBatch
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.parallel.api import Engine, resolve_engine
from repro.types import INF, NO_PARENT, FloatArray, IntArray

__all__ = ["apply_mixed_batch", "MixedUpdateStats"]


@dataclass
class MixedUpdateStats(UpdateStats):
    """Execution profile of one :func:`apply_mixed_batch` call.

    Extends :class:`~repro.core.sosp_update.UpdateStats` (so the
    propagation kernels and every stats consumer treat it uniformly;
    ``step_seconds`` keys are ``"invalidate"`` / ``"seed"`` /
    ``"propagate"`` here) with the fully dynamic phases:

    Attributes
    ----------
    dirty_roots:
        Tree edges whose deletion / weight raise cut a subtree loose.
    invalidated:
        Vertices reset to ``inf`` in Step D (subtree members).
    seed_stimuli:
        Candidate edges fed to the Step-I group relaxation (change
        stimuli plus the dirty connection boundary).
    """

    dirty_roots: int = 0
    invalidated: int = 0
    seed_stimuli: int = 0


def apply_mixed_batch(
    graph: Union[CSRGraph, DiGraph],
    tree: SOSPTree,
    batch: ChangeBatch,
    engine: Optional[Engine] = None,
    use_csr_kernels: bool = True,
    csr: Optional[CSRGraph] = None,
) -> MixedUpdateStats:
    """Repair ``tree`` in place after an arbitrary mixed ``batch``.

    Parameters
    ----------
    graph:
        The **updated** graph ``G_{t+1}`` — the batch must already have
        been applied.  A :class:`~repro.graph.csr.CSRGraph` is read in
        place and never compacted (keep it current with
        ``graph.apply_batch(batch)``); a
        :class:`~repro.graph.digraph.DiGraph` is frozen on entry.
    tree:
        The SOSP tree of ``G_t``; mutated into the tree of ``G_{t+1}``.
    batch:
        Any interleaving of insertion, deletion, and weight-change
        records, including duplicate and self-cancelling edits of one
        edge (stimuli are re-normalised against the live graph).
    engine:
        Execution engine (``None`` = serial); every backend family is
        supported because the pipeline reuses the Step-1/Step-2 slab
        kernels unchanged.  A
        :class:`~repro.parallel.checked.CheckedEngine` adds the
        single-writer-per-vertex assertion
        (:class:`~repro.parallel.atomics.OwnershipTracker`).
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
    :class:`MixedUpdateStats`
    """
    snapshot = resolve_graph(graph, tree, csr)
    eng = resolve_engine(engine)
    stats = MixedUpdateStats()
    dist = tree.dist
    parent = tree.parent
    objective = tree.objective
    marked = np.zeros(snapshot.n, dtype=np.int8)
    tracer = get_tracer()

    # ------------------------------------------------------ Step D
    with tracer.span(
        "sosp_update_mixed.invalidate",
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

    # ------------------------------------------------------ Step I
    with tracer.span("sosp_update_mixed.seed") as sp_seed:
        s_src, s_dst, s_w = _gather_stimuli(
            snapshot, batch, dirty, objective
        )
        stats.seed_stimuli = int(s_src.size)
        affected_arr, scanned = kernels.relax_batch_groups(
            s_src, s_dst, s_w, dist, parent, marked, engine=eng
        )
        sp_seed.set(stimuli=stats.seed_stimuli,
                    affected=int(affected_arr.size))
    stats.step_seconds["seed"] = sp_seed.elapsed
    stats.step1_passes = 1
    stats.relaxations += scanned
    stats.affected_initial = int(affected_arr.size)
    stats.affected_total = int(affected_arr.size)
    stats.affected_vertices.update(affected_arr.tolist())

    # ------------------------------------------------------ Step 2/3
    with tracer.span("sosp_update_mixed.propagate", kernel="csr") as sp_prop:
        kernels.propagate_csr(
            snapshot, dist, parent, marked, affected_arr,
            objective=objective, engine=eng, stats=stats,
        )
    stats.step_seconds["propagate"] = sp_prop.elapsed
    _publish_mixed_stats(stats, batch)
    return stats


# ----------------------------------------------------------------------
def _invalidate(
    snapshot: CSRGraph,
    tree: SOSPTree,
    batch: ChangeBatch,
    stats: MixedUpdateStats,
) -> IntArray:
    """Step D: collect the sorted dirty set without mutating the tree yet.

    A deletion or weight-change record ``(u, v)`` cuts ``v`` loose iff
    ``v``'s parent pointer crosses that edge and no surviving parallel
    ``(u, v)`` edge certifies a distance ``≤ dist[v]``.  The test is
    strictly one-sided (``nd > dist[v]``): a weight drop on the parent
    edge leaves ``dist[v]`` a valid upper bound, and the matching Step-I
    stimulus lowers it without the invalidation churn.  The surviving
    weights come from the updated snapshot in one vectorised lookup
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


def _gather_stimuli(
    snapshot: CSRGraph,
    batch: ChangeBatch,
    dirty: IntArray,
    objective: int,
) -> Tuple[IntArray, IntArray, FloatArray]:
    """Assemble the Step-I candidate edges ``(src, dst, weight)``.

    Change stimuli come first: one per distinct inserted /
    weight-changed pair, in first-occurrence order (insertions, then
    weight changes), normalised to the minimum live weight so the
    batch's record order and duplicates cannot disagree with the graph;
    pairs with no live edge left are dropped.  Then the dirty boundary
    — every in-edge of every invalidated vertex.  Order is
    deterministic, and duplicates between the two groups are harmless:
    the group relaxation reduces each destination with one segmented
    argmin.
    """
    ins_src, ins_dst, _ins_w = batch.insert_records()
    wc_src, wc_dst, _wc_w = batch.weight_change_records()
    src = np.concatenate((ins_src, wc_src))
    dst = np.concatenate((ins_dst, wc_dst))
    _, first = np.unique(src * snapshot.n + dst, return_index=True)
    first.sort()
    src, dst = src[first], dst[first]
    w = snapshot.min_weight_between(src, dst, objective)
    live = np.isfinite(w)
    src, dst, w = src[live], dst[live], w[live]
    if dirty.size:
        b_src, b_dst, b_w = kernels.gather_in_edges_csr(
            snapshot, dirty, objective
        )
        src = np.concatenate((src, b_src))
        dst = np.concatenate((dst, b_dst))
        w = np.concatenate((w, b_w))
    return src, dst, w


def _publish_mixed_stats(stats: MixedUpdateStats, batch: ChangeBatch) -> None:
    """Publish one finished mixed update to the metrics registry."""
    m = get_metrics()
    if not m.enabled:
        return
    m.counter("mixed_updates_total", "fully dynamic mixed updates").inc()
    m.counter(
        "mixed_invalidated_total",
        "vertices invalidated by deleted/raised tree edges",
    ).inc(stats.invalidated)
    m.counter(
        "mixed_relaxations_total",
        "edges examined across seed + propagation",
    ).inc(stats.relaxations)
    m.counter(
        "mixed_wasted_improvements_total",
        "improvements overwritten later in the same update",
    ).inc(stats.affected_total - len(stats.affected_vertices))
    m.histogram("mixed_batch_size", "records per mixed batch").observe(
        batch.num_changes
    )
    m.histogram(
        "mixed_seed_stimuli", "Step-I candidate edges per update"
    ).observe(stats.seed_stimuli)
    m.histogram(
        "mixed_propagate_iterations", "frontier waves per mixed update"
    ).observe(stats.iterations)
