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

Both steps run as vectorised kernels over the
:class:`~repro.graph.csr.CSRGraph` of the updated graph (see
:func:`resolve_graph`).  The function mutates the tree in place and
leaves it a correct SSSP solution of the updated graph (certified property-based in the test
suite).  The update touches only the affected region — its cost is
O(|ΔE| + affected subgraph), not O(|E|).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

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
        parent) changed.  Its size against ``affected_total`` gives
        the wasted-improvement count
        (``sosp_/mixed_wasted_improvements_total``), and benchmarks
        read it as the improved-vertex count.
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
    graph: Union[CSRGraph, DiGraph],
    tree: SOSPTree,
    batch: ChangeBatch,
    engine: Optional[Engine] = None,
) -> UpdateStats:
    """Update ``tree`` in place after the insertions in ``batch``.

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
        The change batch.  Only insertion records are processed; a
        batch containing deletions or weight changes raises
        :class:`~repro.errors.AlgorithmError` (use
        :func:`repro.core.fully_dynamic.apply_mixed_batch`).
    engine:
        Execution engine (``None`` = serial).  Each superstep covers the
        Step-1 groups / Step-2 frontier with contiguous slabs, one
        owner per vertex, matching the paper's OpenMP scheduling.  A
        :class:`~repro.parallel.checked.CheckedEngine` adds the
        vertex-ownership assertion
        (:class:`~repro.parallel.atomics.OwnershipTracker`).

    Returns
    -------
    :class:`UpdateStats`
    """
    if batch.num_deletions or batch.num_weight_changes:
        raise AlgorithmError(
            "sosp_update handles insertions only; use apply_mixed_batch "
            "for batches with deletions or weight changes"
        )
    snapshot = resolve_graph(graph, tree)
    eng = resolve_engine(engine)
    stats = UpdateStats()
    dist = tree.dist
    parent = tree.parent
    objective = tree.objective
    marked = np.zeros(snapshot.n, dtype=np.int8)

    # normalise the insertion records against the *live* graph: a batch
    # may insert and delete the same (u, v) edge (mixed batches apply
    # in record order), so the only trustworthy stimulus per record is
    # the smallest live (u, v) weight — achievable by construction and
    # at least as good as whatever the record carried.  Records whose
    # endpoints have no surviving edge are dropped.
    batch = _normalize_against_graph(snapshot, batch, objective)

    tracer = get_tracer()
    batch_size = int(batch.num_insertions)
    src, dst, w_all = batch.insert_records()
    with tracer.span(
        "sosp_update.step1", kernel="csr", batch_size=batch_size
    ) as sp1:
        affected_arr, scanned = kernels.relax_batch_groups(
            src, dst, w_all[:, objective], dist, parent, marked, engine=eng
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
        )
    stats.step_seconds["step2"] = sp2.elapsed
    _publish_stats(stats, batch_size)
    return stats


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
    ``(DiGraph, ..., csr=maintained)`` of
    :func:`~repro.core.fully_dynamic.apply_mixed_batch` and
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
    snapshot: CSRGraph, batch: ChangeBatch, objective: int
) -> ChangeBatch:
    """Rewrite insertion records to the minimum live ``(u, v)`` weight
    for ``objective``; drop records with no surviving edge.

    One vectorised lookup over the updated snapshot
    (:meth:`~repro.graph.csr.CSRGraph.min_weight_between`), O(|batch| +
    degree)."""
    src, dst, w = batch.insert_records()
    if len(src) == 0:
        return batch
    live = snapshot.min_weight_between(src, dst, objective)
    keep = np.isfinite(live)  # an edge deleted later in the batch is gone
    w = w[keep]
    w[:, objective] = live[keep]
    return ChangeBatch(
        src[keep], dst[keep], w, np.ones(int(keep.sum()), dtype=bool)
    )
