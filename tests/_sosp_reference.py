"""Reference Algorithm 1: the pointer-chasing Python twin.

Before the CSR kernels became the only update path,
``repro.core.sosp_update.sosp_update`` also ran Steps 0-2 as one Python
task per destination group / frontier vertex over a
:class:`~repro.graph.digraph.DiGraph`, with an optional ungrouped Step 1
emulating the prior-work iterate-to-fixpoint batch apply ([17]).  This
module keeps that path verbatim as the oracle the differential suites
compare the kernels against bitwise, and as the grouping ablation's
subject (``benchmarks/bench_ablation_grouping.py``):

- :func:`group_by_destination` — Step 0;
- :func:`gather_unique_neighbors` — the DiGraph Step-2 gather;
- :func:`propagate_reference` — Step 2;
- :func:`sosp_update_reference` — the whole update, grouped or not.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.sosp_update import UpdateStats, _publish_stats
from repro.core.tree import SOSPTree
from repro.dynamic.changes import ChangeBatch
from repro.errors import AlgorithmError
from repro.graph.digraph import DiGraph
from repro.obs.tracer import get_tracer
from repro.parallel.api import Engine, resolve_engine
from repro.parallel.atomics import OwnershipTracker, resolve_tracker
from repro.types import FloatArray, IntArray
from tests._graph_apply_reference import normalize_against_graph_reference

__all__ = [
    "group_by_destination",
    "gather_unique_neighbors",
    "propagate_reference",
    "sosp_update_reference",
]


def group_by_destination(
    batch: ChangeBatch, objective: int = 0
) -> List[Tuple[int, IntArray, FloatArray]]:
    """Group the batch's insertion records by destination.

    Returns a list of ``(v, sources, weights)`` tuples — one group per
    distinct destination vertex ``v``, where ``sources[i]`` /
    ``weights[i]`` describe one inserted edge ``(sources[i], v)`` with
    its ``objective``-component weight.  The list is the unit of
    parallel work for Step 1: one task per group.

    Implemented as a single stable sort over the batch (numpy argsort)
    followed by boundary detection — O(b log b) with tiny constants,
    matching the paper's hash-grouping in spirit while staying
    vectorised.
    """
    src, dst, w = batch.insert_records()
    b = len(src)
    if b == 0:
        return []
    order = np.argsort(dst, kind="stable")
    dst_sorted = dst[order]
    src_sorted = src[order]
    w_sorted = w[order, objective]
    # boundaries of equal-destination runs
    cuts = np.nonzero(np.diff(dst_sorted))[0] + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [b]))
    return [
        (int(dst_sorted[s]), src_sorted[s:e], w_sorted[s:e])
        for s, e in zip(starts, ends)
    ]


def gather_unique_neighbors(g: DiGraph, affected: List[int]) -> List[int]:
    """Unique out-neighbours of all ``affected`` vertices (Alg. 1 l.15-17).

    Order is deterministic (first-seen order over the affected list),
    which keeps the whole update deterministic under the serial and
    simulated engines.
    """
    seen = set()
    out: List[int] = []
    for u in affected:
        for v, _eid in g.out_edges(u):
            if v not in seen:
                seen.add(v)
                out.append(v)
    return out


def sosp_update_reference(
    graph: DiGraph,
    tree: SOSPTree,
    batch: ChangeBatch,
    engine: Optional[Engine] = None,
    use_grouping: bool = True,
) -> UpdateStats:
    """Update ``tree`` in place after the insertions in ``batch``, one
    Python task per group / frontier vertex.

    Same contract as :func:`repro.core.sosp_update.sosp_update` (the
    batch is already applied to ``graph``; insertions only).
    ``use_grouping=False`` switches Step 1 to the prior-work emulation:
    plain edge-parallel passes repeated until no distance changes
    (counted in ``UpdateStats.step1_passes``).  Results are identical;
    only the work profile differs.  A checked engine supplies its
    ownership tracker, as on the kernel path.
    """
    if batch.num_deletions or batch.num_weight_changes:
        raise AlgorithmError("sosp_update_reference handles insertions only")
    if tree.num_vertices != graph.num_vertices:
        raise AlgorithmError(
            f"tree spans {tree.num_vertices} vertices, graph has "
            f"{graph.num_vertices}"
        )
    eng = resolve_engine(engine)
    stats = UpdateStats()
    dist = tree.dist
    parent = tree.parent
    objective = tree.objective
    marked = np.zeros(graph.num_vertices, dtype=np.int8)
    tracker = resolve_tracker(eng)
    tracer = get_tracer()

    # ------------------------------------------------------ step 0 + 1
    # the live-weight lookup is timed as Step 1, as on the kernel path
    with tracer.span(
        "sosp_update.step1", kernel="python", grouped=use_grouping
    ) as sp1:
        batch = normalize_against_graph_reference(graph, batch, objective)
        batch_size = int(batch.num_insertions)
        sp1.set(batch_size=batch_size)
        if use_grouping:
            affected = _step1_grouped(
                batch, objective, dist, parent, marked, eng, stats, tracker
            )
        else:
            affected = _step1_ungrouped(
                batch, objective, dist, parent, marked, eng, stats
            )
    stats.step_seconds["step1"] = sp1.elapsed
    stats.affected_initial = len(affected)
    stats.affected_total = len(affected)
    stats.affected_vertices.update(affected)

    # ---------------------------------------------------------- step 2
    with tracer.span("sosp_update.step2", kernel="python") as sp2:
        propagate_reference(
            graph, objective, dist, parent, marked, affected,
            eng, stats, tracker,
        )
    stats.step_seconds["step2"] = sp2.elapsed
    _publish_stats(stats, batch_size)
    return stats


def propagate_reference(
    graph: DiGraph,
    objective: int,
    dist: np.ndarray,
    parent: np.ndarray,
    marked: np.ndarray,
    affected: List[int],
    eng: Engine,
    stats: "UpdateStats",
    tracker: Optional[OwnershipTracker],
) -> None:
    """Step 2 on the pointer-chasing reference path.

    The python twin of :func:`~repro.core.kernels.propagate_csr`:
    while the affected set is non-empty, each unique out-neighbour
    pulls its *marked* predecessors and relaxes.  ``stats`` is
    duck-typed exactly as ``propagate_csr`` requires.
    """
    weights_col = graph.weight_column(objective)
    while affected:
        if tracker is not None:
            tracker.next_superstep()
        frontier = gather_unique_neighbors(graph, affected)
        stats.frontier_sizes.append(len(frontier))
        stats.iterations += 1

        def relax(task_item):
            task_id, v = task_item
            best = dist[v]
            best_u = -1
            scanned = 0
            for u, eid in graph.in_edges(v):
                scanned += 1
                if marked[u] != 1:
                    continue
                nd = dist[u] + weights_col[eid]
                if nd < best:
                    best = nd
                    best_u = u
            if best_u >= 0:
                if tracker is not None:
                    tracker.record_write(v, task_id)
                dist[v] = best
                parent[v] = best_u
                marked[v] = 1
                return v, scanned
            return -1, scanned

        results = eng.parallel_for(
            list(enumerate(frontier)),
            relax,
            work_fn=lambda item, r: max(1, r[1]),
        )
        stats.relaxations += sum(r[1] for r in results)
        affected = [v for v, _ in results if v >= 0]
        stats.affected_total += len(affected)
        stats.affected_vertices.update(affected)


def _step1_grouped(
    batch, objective, dist, parent, marked, eng, stats, tracker
) -> List[int]:
    """Steps 0+1 with destination grouping: one pass, race-free."""
    groups = group_by_destination(batch, objective)

    def process_group(task_item):
        task_id, (v, srcs, ws) = task_item
        best = dist[v]
        best_u = -1
        for u, w in zip(srcs, ws):
            nd = dist[u] + w
            if nd < best:
                best = nd
                best_u = int(u)
        if best_u >= 0:
            if tracker is not None:
                tracker.record_write(v, task_id)
            dist[v] = best
            parent[v] = best_u
            marked[v] = 1
            return v, len(srcs)
        return -1, len(srcs)

    results = eng.parallel_for(
        list(enumerate(groups)),
        process_group,
        work_fn=lambda item, r: max(1, r[1]),
    )
    stats.step1_passes = 1
    stats.relaxations += sum(r[1] for r in results)
    return [v for v, _ in results if v >= 0]


def _step1_ungrouped(
    batch, objective, dist, parent, marked, eng, stats
) -> List[int]:
    """Prior-work emulation ([17]): edge-parallel passes to a fixpoint.

    Without grouping, several inserted edges can target one vertex, so
    a single edge-parallel pass may apply a non-minimal update (in the
    real racy implementation) or require re-checking (here): passes
    repeat until no distance changes, and every pass rescans the whole
    batch — the extra work the paper's grouping removes.
    """
    src, dst, w_all = batch.insert_records()
    w = w_all[:, objective]
    b = len(src)
    affected_set = set()
    chunk = max(1, b // 64)
    spans = [(lo, min(lo + chunk, b)) for lo in range(0, b, chunk)]
    while True:
        stats.step1_passes += 1

        def scan(span):
            lo, hi = span
            proposals = []
            for i in range(lo, hi):
                u, v = int(src[i]), int(dst[i])
                nd = dist[u] + w[i]
                if nd < dist[v]:
                    proposals.append((v, nd, u))
            return proposals

        parts = eng.parallel_for(
            spans, scan, work_fn=lambda s, r: s[1] - s[0]
        )
        stats.relaxations += b
        changed = False
        # sequential merge stands in for the atomic-min the racy
        # implementation relies on
        for proposals in parts:
            for v, nd, u in proposals:
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    marked[v] = 1
                    affected_set.add(v)
                    changed = True
            eng.charge(len(proposals))
        if not changed:
            break
    return sorted(affected_set)
