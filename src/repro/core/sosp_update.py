"""Algorithm 1: parallel SOSP update for batches of edge insertions.

The three steps of the paper, §3.1:

- **Step 0 — Preprocessing**: inserted edges are grouped by
  destination, making each destination a unit of parallel work owned
  by exactly one task.  The CSR kernel groups with one stable sort
  inside :func:`~repro.core.kernels.relax_batch_groups`.
- **Step 1 — Process changed edges**: each group relaxes its inserted
  edges against the current tree; an improved vertex is *marked*
  affected.  Grouping means no two tasks write one vertex, so a single
  pass suffices — this is the paper's improvement over the
  iterate-until-consistent approach of prior work ([17]).
- **Step 2 — Propagate the update**: while the affected set is
  non-empty, gather the unique out-neighbours ``N`` of the affected
  vertices; in parallel each ``v ∈ N`` scans its *marked* predecessors
  and relaxes; improved vertices become the next affected set
  (:func:`~repro.core.kernels.propagate_csr`).

Both steps run as vectorised kernels over a
:class:`~repro.graph.csr.CSRGraph` snapshot of the updated graph.  The
function mutates the tree in place and leaves it a correct SSSP
solution of the updated graph (certified property-based in the test
suite).  The update touches only the affected region — its cost is
O(|ΔE| + affected subgraph), not O(|E|).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro.core.kernels as kernels
from repro.core.tree import SOSPTree
from repro.dynamic.changes import ChangeBatch
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.parallel.api import Engine, resolve_engine
from repro.parallel.atomics import OwnershipTracker, resolve_tracker

__all__ = ["sosp_update", "UpdateStats"]


@dataclass
class UpdateStats:
    """Execution profile of one :func:`sosp_update` call.

    Attributes
    ----------
    affected_initial:
        Vertices improved directly by inserted edges (Step 1).
    affected_total:
        Total improvement events across both steps (a vertex improved
        twice counts twice).
    step1_passes:
        Passes over the inserted edges (always 1: destination grouping
        makes Step 1 a single race-free pass).
    iterations:
        Step 2 frontier iterations.
    relaxations:
        Edges examined across the whole update (the work-unit count).
    frontier_sizes:
        ``|N|`` per Step 2 iteration.
    affected_vertices:
        The distinct vertices whose distance (and hence possibly
        parent) changed — consumed by
        :class:`~repro.core.incremental_ensemble.IncrementalMOSP` to
        diff only the churned part of the ensemble.
    step_seconds:
        Wall-clock seconds per step: ``"step1"`` (changed-edge
        application) and ``"step2"`` (frontier propagation).
    """

    affected_initial: int = 0
    affected_total: int = 0
    step1_passes: int = 0
    iterations: int = 0
    relaxations: int = 0
    frontier_sizes: List[int] = field(default_factory=list)
    affected_vertices: set = field(default_factory=set)
    step_seconds: Dict[str, float] = field(default_factory=dict)


def sosp_update(
    graph: DiGraph,
    tree: SOSPTree,
    batch: ChangeBatch,
    engine: Optional[Engine] = None,
    check_ownership: bool = False,
    csr: Optional[CSRGraph] = None,
) -> UpdateStats:
    """Update ``tree`` in place after the insertions in ``batch``.

    Parameters
    ----------
    graph:
        The **updated** graph ``G_{t+1}`` — the batch must already have
        been applied (``batch.apply_to(graph)``); Step 2 needs the new
        edges visible in the adjacency.
    tree:
        The SOSP tree of ``G_t``; mutated into the tree of ``G_{t+1}``.
    batch:
        The change batch.  Only insertion records are processed; a
        batch containing deletions or weight changes raises
        :class:`~repro.errors.AlgorithmError` (use
        :func:`repro.core.fully_dynamic.apply_mixed_batch`).
    engine:
        Execution engine (``None`` = serial).  Each superstep covers the
        Step-1 groups / Step-2 frontier with contiguous slabs, one
        owner per vertex, matching the paper's OpenMP scheduling.
    check_ownership:
        Enable the vertex-ownership assertion
        (:class:`~repro.parallel.atomics.OwnershipTracker`) — O(1) per
        write; used by the test suite.
    csr:
        Optional CSR snapshot of the **updated** graph.  Pass a snapshot
        maintained incrementally with
        :meth:`~repro.graph.csr.CSRGraph.append_batch` to amortise the
        freeze across batches; ``None`` freezes ``graph`` on entry (one
        O(|E|) pass).

    Returns
    -------
    :class:`UpdateStats`
    """
    if batch.num_deletions or batch.num_weight_changes:
        raise AlgorithmError(
            "sosp_update handles insertions only; use apply_mixed_batch "
            "for batches with deletions or weight changes"
        )
    if tree.num_vertices != graph.num_vertices:
        raise AlgorithmError(
            f"tree spans {tree.num_vertices} vertices, graph has "
            f"{graph.num_vertices}; rebuild or grow the tree first"
        )
    eng = resolve_engine(engine)
    # partitioned engines own the whole update loop (per-shard pools +
    # boundary exchange); wrappers forward the driver attribute
    driver = getattr(eng, "partitioned_sosp_update", None)
    if callable(driver):
        routed: UpdateStats = driver(
            graph, tree, batch, csr=csr, check_ownership=check_ownership
        )
        return routed
    stats = UpdateStats()
    dist = tree.dist
    parent = tree.parent
    objective = tree.objective
    n = graph.num_vertices
    marked = np.zeros(n, dtype=np.int8)
    # explicit opt-in wins; otherwise a checked engine (resolve_engine
    # checked=True / REPRO_CHECKED_ENGINES=1) supplies its own tracker
    tracker = (
        OwnershipTracker() if check_ownership else resolve_tracker(None, eng)
    )

    # normalise the insertion records against the *live* graph: a batch
    # may insert and delete the same (u, v) edge (mixed batches apply
    # in record order), so the only trustworthy stimulus per record is
    # the smallest live (u, v) weight — achievable by construction and
    # at least as good as whatever the record carried.  Records whose
    # endpoints have no surviving edge are dropped.
    batch = _normalize_against_graph(graph, batch, objective)

    tracer = get_tracer()
    batch_size = int(batch.num_insertions)

    snapshot = csr if csr is not None else CSRGraph.from_digraph(graph)
    check_snapshot(snapshot, graph, "append_batch")
    src, dst, w_all = batch.insert_records()
    with tracer.span(
        "sosp_update.step1", kernel="csr", batch_size=batch_size
    ) as sp1:
        affected_arr, scanned = kernels.relax_batch_groups(
            src, dst, w_all[:, objective], dist, parent, marked,
            engine=eng, tracker=tracker,
        )
    stats.step_seconds["step1"] = sp1.elapsed
    stats.step1_passes = 1
    stats.relaxations += scanned
    stats.affected_initial = int(affected_arr.size)
    stats.affected_total = int(affected_arr.size)
    stats.affected_vertices.update(affected_arr.tolist())
    with tracer.span("sosp_update.step2", kernel="csr") as sp2:
        kernels.propagate_csr(
            snapshot, dist, parent, marked, affected_arr,
            objective=objective, engine=eng, stats=stats,
            tracker=tracker,
        )
    stats.step_seconds["step2"] = sp2.elapsed
    _publish_stats(stats, batch_size)
    return stats


def check_snapshot(snapshot: CSRGraph, graph: DiGraph, sync: str) -> None:
    """Refuse a CSR snapshot that does not mirror ``graph``.

    Compares vertex and live edge counts — the cheap signature of a
    snapshot that missed a batch.  ``sync`` names the
    :class:`~repro.graph.csr.CSRGraph` method the caller should pair
    with ``batch.apply_to(graph)``.
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
            f"snapshot.{sync}(batch) to keep them in sync"
        )


def _publish_stats(stats: UpdateStats, batch_size: int) -> None:
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
              "Step-1 passes over inserted edges").inc(stats.step1_passes)
    m.counter("sosp_improvements_total",
              "distance improvements applied").inc(stats.affected_total)
    m.counter("sosp_wasted_improvements_total",
              "improvements overwritten later in the same update").inc(
        stats.affected_total - len(stats.affected_vertices)
    )
    m.histogram("sosp_batch_size", "insertions per batch").observe(
        batch_size
    )
    m.histogram("sosp_step2_iterations",
                "Step-2 frontier waves per update").observe(stats.iterations)
    h = m.histogram("sosp_frontier_size", "|N| per Step-2 iteration")
    for size in stats.frontier_sizes:
        h.observe(size)


# ----------------------------------------------------------------------
def _normalize_against_graph(
    graph: DiGraph, batch: ChangeBatch, objective: int
) -> ChangeBatch:
    """Rewrite insertion records to the minimum live ``(u, v)`` weight
    for ``objective``; drop records with no surviving edge.

    Cost O(Σ out-degree(u)) over the batch — negligible next to the
    update itself — and only runs when the batch could disagree with
    the graph (records whose weight matches a live edge pass through
    untouched in the common case)."""
    src, dst, w = batch.insert_records()
    if len(src) == 0:
        return batch
    keep_src: List[int] = []
    keep_dst: List[int] = []
    keep_w: List[np.ndarray] = []
    k = batch.num_objectives
    for i in range(len(src)):
        u, v = int(src[i]), int(dst[i])
        live = graph.min_weight_between(u, v, objective)
        if not np.isfinite(live):
            continue  # edge no longer exists (deleted later in batch)
        row = w[i].copy()
        row[objective] = live
        keep_src.append(u)
        keep_dst.append(v)
        keep_w.append(row)
    if not keep_src:
        return ChangeBatch.insertions([])
    return ChangeBatch(
        np.asarray(keep_src),
        np.asarray(keep_dst),
        np.vstack(keep_w),
        np.ones(len(keep_src), dtype=bool),
    )
