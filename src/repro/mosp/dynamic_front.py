"""Incremental maintenance of *full* Pareto fronts under edge insertions.

The paper's introduction observes that "parallel algorithms for the
MOSP problem in large dynamic networks are yet to be explored" and then
deliberately sidesteps full-front maintenance by tracking one MOSP.
This module explores the sidestepped direction: it keeps **every**
vertex's Pareto-optimal label set current across insertion batches,
using the same two ideas as Algorithm 1 —

- **grouping**: candidate labels are grouped by their vertex, so each
  vertex's label set is touched by exactly one task per superstep
  (race-free, exactly the paper's ownership discipline lifted from
  scalar distances to label sets);
- **affected propagation**: only labels accepted into a set spawn
  successor candidates; untouched regions cost nothing.

Edge insertions only ever *add* non-dominated path costs or leave
fronts unchanged, so label-correcting propagation from the inserted
edges converges to the same fronts a from-scratch Martins run produces
(verified property-based in the tests).

**Deletions** are also supported (going past even the paper's
future-work list) via label provenance: every stored label remembers
its parent label and registers itself with it, so a deleted edge's
labels *and all their descendants* can be invalidated exactly.  Repair
then reseeds every vertex that lost labels from its predecessors'
surviving fronts and lets the normal label-setting propagation run —
promoted (previously dominated) paths reappear because every
Pareto-optimal path extends a Pareto-optimal prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dynamic.changes import ChangeBatch
from repro.errors import AlgorithmError
from repro.graph.digraph import DiGraph
from repro.mosp.labels import Label, LabelSet
from repro.mosp.martins import martins
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.parallel.api import Engine, resolve_engine
from repro.parallel.atomics import resolve_tracker
from repro.types import DIST_DTYPE, FloatArray

__all__ = ["DynamicParetoFront", "FrontUpdateStats"]


@dataclass
class FrontUpdateStats:
    """Profile of one :meth:`DynamicParetoFront.update` call."""

    candidates: int = 0
    accepted: int = 0
    supersteps: int = 0
    dominance_checks: int = 0
    invalidated: int = 0
    dirty_vertices: int = 0


def _publish_front_stats(stats: FrontUpdateStats) -> None:
    """Publish one finished front update to the metrics registry
    (exactly once per :meth:`DynamicParetoFront.update` call)."""
    m = get_metrics()
    if not m.enabled:
        return
    m.counter("front_updates_total", "DynamicParetoFront updates").inc()
    m.counter("front_candidates_total", "candidate labels queued").inc(
        stats.candidates
    )
    m.counter("front_accepted_total", "labels accepted into fronts").inc(
        stats.accepted
    )
    m.counter("front_dominance_checks_total", "dominance comparisons").inc(
        stats.dominance_checks
    )
    m.counter("front_invalidated_total",
              "labels invalidated by deletions").inc(stats.invalidated)
    m.histogram("front_dirty_vertices",
                "vertices reseeded per update").observe(stats.dirty_vertices)


def _link(child: Label) -> Label:
    """Register ``child`` with its parent label for descendant
    invalidation; returns the child for chaining."""
    if child.parent_label is not None:
        child.parent_label.children.append(child)
    return child


class DynamicParetoFront:
    """All-destination Pareto fronts, maintained under insertions.

    Parameters
    ----------
    graph:
        Multi-objective digraph; the caller applies each batch to it
        (``batch.apply_to(graph)``) before calling :meth:`update`.
    source:
        Source vertex of all fronts.
    engine:
        Execution engine for the propagation supersteps.

    Examples
    --------
    >>> from repro.graph import DiGraph
    >>> from repro.dynamic import ChangeBatch
    >>> g = DiGraph(2, k=2)
    >>> _ = g.add_edge(0, 1, (5.0, 5.0))
    >>> dpf = DynamicParetoFront(g, 0)
    >>> batch = ChangeBatch.insertions([(0, 1, (1.0, 9.0))])
    >>> _ = batch.apply_to(g)
    >>> _ = dpf.update(batch)
    >>> sorted(map(tuple, dpf.front(1).tolist()))
    [(1.0, 9.0), (5.0, 5.0)]
    """

    def __init__(
        self,
        graph: DiGraph,
        source: int,
        engine: Optional[Engine] = None,
    ) -> None:
        self.graph = graph
        self.source = int(source)
        self.engine = resolve_engine(engine)
        result = martins(graph, source)
        self._sets: List[LabelSet] = [LabelSet() for _ in result.labels]
        # hop index: (u, v) -> every label ever accepted whose last hop
        # is that edge.  Deletion invalidation starts here — a label can
        # be evicted from its set yet leave surviving descendants, so
        # set scans alone would miss users of a deleted edge.
        self._hop_index: Dict[Tuple[int, int], List[Label]] = {}
        for v, labs in enumerate(result.labels):
            for lab in labs:
                self._sets[v].insert(lab)
                self._register(lab)

    def _register(self, lab: Label) -> None:
        """Record an accepted label in the provenance structures."""
        _link(lab)
        if lab.parent >= 0:
            self._hop_index.setdefault(
                (lab.parent, lab.vertex), []
            ).append(lab)

    # ------------------------------------------------------------------
    def front(self, v: int) -> FloatArray:
        """``(f, k)`` Pareto front of vertex ``v`` (empty if
        unreachable)."""
        return self._sets[v].front()

    def labels(self, v: int) -> List[Label]:
        """The Pareto-optimal labels of ``v``."""
        return list(self._sets[v].labels)

    def paths(self, v: int) -> List[List[int]]:
        """All currently Pareto-optimal source→``v`` paths."""
        return [lab.path() for lab in self._sets[v].labels]

    def num_labels(self) -> int:
        """Total label count over all vertices."""
        return sum(len(s) for s in self._sets)

    # ------------------------------------------------------------------
    def update(
        self, batch: ChangeBatch, mode: str = "setting"
    ) -> FrontUpdateStats:
        """Propagate an (already applied) insertion batch.

        Two modes, same final fronts:

        - ``"setting"`` (default): a lexicographic priority queue
          seeded with the inserted-edge candidates — the incremental
          analogue of Martins' label-*setting* loop.  Each new Pareto
          label settles exactly once, so total work tracks the churn.
        - ``"correcting"``: superstep-parallel label-*correcting* with
          per-vertex grouping (the paper's Algorithm-1 structure lifted
          to label sets).  More total work (labels can be re-corrected
          across waves) in exchange for wide race-free supersteps —
          the same trade the paper makes choosing Bellman-Ford-style
          propagation over Dijkstra.

        Deletion records are processed first (invalidate labels via
        provenance, reseed dirty vertices), then insertions; a single
        propagation pass settles both.
        """
        if self.graph.num_vertices != len(self._sets):
            raise AlgorithmError(
                "graph grew vertices; rebuild DynamicParetoFront"
            )
        if mode not in ("setting", "correcting"):
            raise AlgorithmError(
                f"unknown mode {mode!r}; expected setting | correcting"
            )
        if batch.num_weight_changes:
            raise AlgorithmError(
                "DynamicParetoFront does not support weight-change "
                "records yet; replay them as a deletion + insertion pair"
            )
        stats = FrontUpdateStats()
        g = self.graph
        k = g.num_objectives
        tracer = get_tracer()

        with tracer.span(
            "dynamic_front.update", mode=mode,
            insertions=int(batch.num_insertions),
            deletions=int(batch.num_deletions),
        ):
            candidates: List[Label] = []

            # ---- deletions: invalidate via provenance, reseed dirty
            del_src, del_dst = batch.delete_records()
            if len(del_src):
                with tracer.span("dynamic_front.deletions") as sp_del:
                    dirty = self._process_deletions(
                        del_src, del_dst, stats
                    )
                    stats.dirty_vertices = len(dirty)
                    for v in sorted(dirty):
                        for u, eid in g.in_edges(v):
                            wv = g.weight(eid)
                            for lab in self._sets[u].labels:
                                nd = tuple(
                                    (np.asarray(lab.dist, dtype=DIST_DTYPE)
                                     + wv).tolist()
                                )
                                candidates.append(
                                    Label(v, nd, parent=u, parent_label=lab)
                                )
                    sp_del.set(
                        invalidated=stats.invalidated,
                        dirty_vertices=stats.dirty_vertices,
                    )

            # ---- insertions: every inserted edge extends its tail's
            # labels.  Seeds come from the *live* (u, v) weight vectors,
            # not the record's: a mixed batch may have deleted the
            # inserted edge again (records apply in order), and
            # conversely several incomparable parallel edges may all
            # matter for the front.
            src, dst, _w = batch.insert_records()
            seen_pairs = set()
            for i in range(len(src)):
                u, v = int(src[i]), int(dst[i])
                if u == v or (u, v) in seen_pairs:
                    continue
                seen_pairs.add((u, v))
                live = [
                    g.weight(eid) for vv, eid in g.out_edges(u) if vv == v
                ]
                for wv in live:
                    for lab in self._sets[u].labels:
                        nd = tuple(
                            (np.asarray(lab.dist, dtype=DIST_DTYPE)
                             + wv).tolist()
                        )
                        candidates.append(
                            Label(v, nd, parent=u, parent_label=lab)
                        )

            if mode == "setting":
                with tracer.span("dynamic_front.setting"):
                    self._update_setting(candidates, stats)
            else:
                with tracer.span("dynamic_front.correcting"):
                    self._update_correcting(candidates, stats)
        _publish_front_stats(stats)
        return stats

    # ------------------------------------------------------------------
    def _process_deletions(self, del_src, del_dst, stats) -> set:
        """Invalidate every label whose path uses a deleted edge.

        A label uses hop ``(u, v)`` iff its distance increment over its
        parent label matches no *surviving* parallel ``(u, v)`` edge.
        All descendants of an invalid label are invalid.  Returns the
        set of vertices that lost at least one stored label.
        """
        from collections import deque

        g = self.graph
        roots: List[Label] = []
        for u, v in {
            (int(a), int(b)) for a, b in zip(del_src, del_dst)
        }:
            remaining = [
                g.weight(eid) for vv, eid in g.out_edges(u) if vv == v
            ]
            for lab in self._hop_index.get((u, v), []):
                if lab.parent_label is None:
                    continue
                delta = (
                    np.asarray(lab.dist, dtype=DIST_DTYPE)
                    - np.asarray(lab.parent_label.dist, dtype=DIST_DTYPE)
                )
                if not any(
                    np.allclose(delta, w, rtol=1e-9, atol=1e-12)
                    for w in remaining
                ):
                    roots.append(lab)

        dirty: set = set()
        seen: set = set()
        queue = deque(roots)
        while queue:
            lab = queue.popleft()
            if id(lab) in seen:
                continue
            seen.add(id(lab))
            queue.extend(lab.children)
            if self._sets[lab.vertex].remove(lab):
                dirty.add(lab.vertex)
        stats.invalidated = len(seen)
        return dirty

    # ------------------------------------------------------------------
    def _update_setting(
        self, candidates: List[Label], stats: FrontUpdateStats
    ) -> None:
        """Incremental label-setting: lexicographic heap, settle once."""
        import heapq
        import itertools

        g = self.graph
        tie = itertools.count()
        heap: List[Tuple[Tuple[float, ...], int, Label]] = []
        for lab in candidates:
            heapq.heappush(heap, (lab.dist, next(tie), lab))
        stats.candidates += len(candidates)
        while heap:
            _, _, lab = heapq.heappop(heap)
            v = lab.vertex
            stats.dominance_checks += len(self._sets[v])
            if not self._sets[v].insert(lab):
                continue
            self._register(lab)
            stats.accepted += 1
            base = np.asarray(lab.dist, dtype=DIST_DTYPE)
            for u, eid in g.out_edges(v):
                nd = tuple((base + g.weight(eid)).tolist())
                stats.dominance_checks += len(self._sets[u])
                if self._sets[u].would_accept(nd):
                    child = Label(u, nd, parent=v, parent_label=lab)
                    heapq.heappush(heap, (nd, next(tie), child))
                    stats.candidates += 1

    # ------------------------------------------------------------------
    def _update_correcting(
        self, candidates: List[Label], stats: FrontUpdateStats
    ) -> None:
        """Superstep-parallel label-correcting with vertex grouping."""
        g = self.graph
        # a checked engine supplies a tracker; grouping by vertex means
        # each Pareto set is mutated by exactly one task per superstep
        tracker = resolve_tracker(self.engine)
        while candidates:
            stats.supersteps += 1
            stats.candidates += len(candidates)
            # group by owning vertex (the paper's Step-0 idea on labels)
            groups: Dict[int, List[Label]] = {}
            for lab in candidates:
                groups.setdefault(lab.vertex, []).append(lab)

            def process_group(
                item: Tuple[int, Tuple[int, List[Label]]]
            ) -> Tuple[List[Label], int]:
                task_id, (v, labs) = item
                accepted = []
                checks = 0
                for lab in labs:
                    checks += len(self._sets[v])
                    if tracker is not None:
                        tracker.record_write(v, task_id)
                    if self._sets[v].insert(lab):
                        accepted.append(lab)
                return accepted, checks
            # NOTE: registration of accepted labels happens below, on
            # the coordinating thread — the provenance dicts are shared

            results = self.engine.parallel_for(
                list(enumerate(groups.items())),
                process_group,
                work_fn=lambda item, r: max(1, r[1]),
            )

            # spawn successors of accepted labels (next superstep)
            candidates = []
            for accepted, checks in results:
                stats.dominance_checks += checks
                stats.accepted += len(accepted)
                for lab in accepted:
                    self._register(lab)
                for lab in accepted:
                    base = np.asarray(lab.dist, dtype=DIST_DTYPE)
                    for u, eid in g.out_edges(lab.vertex):
                        nd = tuple((base + g.weight(eid)).tolist())
                        # cheap pre-filter before queueing
                        if self._sets[u].would_accept(nd):
                            candidates.append(
                                Label(u, nd, parent=lab.vertex,
                                      parent_label=lab)
                            )
            self.engine.charge(len(candidates))
