"""The paper's "Probable Optimization": incremental combined-graph SOSP.

§3.2: "Initially the algorithm needs to compute the SOSP tree in the
combined graph from scratch.  Later the algorithm can use the SOSP tree
computed in E_t (at time t) and the changed edges found in the new
ensemble graph E_{t+1} to update the SOSP tree using a similar approach
proposed in Algorithm [1]."

:class:`IncrementalMOSP` keeps the whole MOSP pipeline warm across time
steps:

1. the ``k`` per-objective SOSP trees (updated by Algorithm 1 over the
   caller's :class:`~repro.graph.csr.CSRGraph`, read in place);
2. the ensemble graph as a *mutable* :class:`~repro.graph.DiGraph`
   patched with the diff between consecutive ensembles;
3. the SOSP tree **on** the ensemble graph, updated by the fully
   dynamic Algorithm-1 variant instead of a fresh Bellman-Ford —
   ensemble edges appear, vanish, and change weight (their tree-count
   ``x`` moves), so the diff contains insertions and deletions.

Diff classification per ensemble edge ``(u, v)``:

=============================  =======================================
appears in the new ensemble    insertion record
vanishes                       deletion record
weight decreased (x grew)      insertion record (pure improvement)
weight increased (x shrank)    deletion + insertion records
=============================  =======================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fully_dynamic import apply_mixed_batch
from repro.core.ensemble import resolve_weighting, vertex_ensemble_edges
from repro.core.mosp_update import (
    MOSPResult,
    _make_timed,
    _reassign_real_weights,
    _record_tree_stats,
    _update_tree_step1,
)
from repro.core.tree import SOSPTree
from repro.dynamic.changes import ChangeBatch
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph, live_edge_arrays
from repro.graph.digraph import DiGraph
from repro.parallel.api import Engine, resolve_engine
from repro.sssp.bellman_ford import frontier_bellman_ford
from repro.types import DIST_DTYPE, INF, VERTEX_DTYPE

__all__ = ["IncrementalMOSP"]


class IncrementalMOSP:
    """Warm-state MOSP maintenance across a change stream.

    Parameters
    ----------
    graph:
        The multi-objective :class:`~repro.graph.csr.CSRGraph`; the
        caller keeps it current with ``graph.apply_batch(batch)``
        before calling :meth:`update`.  A
        :class:`~repro.graph.digraph.DiGraph` is refused: frozen once
        here and then mutated by the caller, it would desynchronise
        silently.  Construction compacts the CSR (the initial trees
        come from a static solver); updates read it in place.
    source:
        Common source of all trees.
    engine:
        Execution engine shared by every stage.
    weighting, priorities:
        Ensemble weighting scheme (fixed for the object's lifetime —
        changing the scheme would invalidate the warm ensemble tree).

    Examples
    --------
    >>> from repro.graph import CSRGraph, DiGraph
    >>> from repro.dynamic import ChangeBatch
    >>> g = DiGraph(3, k=2)
    >>> _ = g.add_edge(0, 1, (1.0, 2.0)); _ = g.add_edge(1, 2, (1.0, 2.0))
    >>> csr = CSRGraph.from_digraph(g)
    >>> inc = IncrementalMOSP(csr, source=0)
    >>> inc.result().path_to(2)
    [0, 1, 2]
    >>> batch = ChangeBatch.insertions([(0, 2, (1.5, 1.5))])
    >>> csr.apply_batch(batch)
    >>> inc.update(batch).path_to(2)
    [0, 2]
    """

    def __init__(
        self,
        graph: CSRGraph,
        source: int,
        engine: Optional[Engine] = None,
        weighting: str = "balanced",
        priorities: Optional[Sequence[float]] = None,
    ) -> None:
        if not isinstance(graph, CSRGraph):
            raise AlgorithmError(
                "IncrementalMOSP takes a CSRGraph kept current with "
                f"apply_batch, got {type(graph).__name__}; freeze it "
                "once with CSRGraph.from_digraph"
            )
        self.graph = graph
        self.source = int(source)
        self.engine = resolve_engine(engine)
        self.weighting = weighting
        self.priorities = priorities

        k = graph.k
        self._prio = resolve_weighting(weighting, priorities, k)
        self.trees: List[SOSPTree] = [
            SOSPTree.build(graph, source, objective=i) for i in range(k)
        ]
        # warm ensemble state: per-destination in-edge maps {u: w}
        self._ensemble_graph = DiGraph(graph.n, k=1)
        self._in_edges: List[Dict[int, float]] = [
            {} for _ in range(graph.n)
        ]
        self._ensemble_tree: Optional[SOSPTree] = None
        self._bootstrap()

    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        """Initial from-scratch combined-graph SOSP (the paper's
        'initially the algorithm needs to compute ... from scratch')."""
        n = self.graph.n
        for v in range(n):
            entries = vertex_ensemble_edges(
                self.trees, v, self.weighting, self._prio
            )
            self._in_edges[v] = {u: w for u, _v, w in entries}
            for u, w in self._in_edges[v].items():
                self._ensemble_graph.add_edge(u, v, w)
        self.engine.charge(n * len(self.trees))
        dist, parent = frontier_bellman_ford(
            self._ensemble_graph, self.source, engine=self.engine
        )
        self._ensemble_tree = SOSPTree(self.source, dist, parent)

    # ------------------------------------------------------------------
    def _diff_and_patch(self, dirty: Optional[set]) -> ChangeBatch:
        """Recompute ensemble in-edges for the dirty vertices only,
        patch the warm ensemble graph, and return the change batch
        that seeds the ensemble tree repair.

        ``dirty=None`` means "everything" (used when the caller did not
        run Step 1 through this object, so churn is unknown).
        """
        vertices = range(self.graph.n) if dirty is None else dirty
        ins: List[Tuple[int, int, Tuple[float]]] = []
        dels: List[Tuple[int, int]] = []

        def patch_vertex(v: int):
            old = self._in_edges[v]
            new = {
                u: w
                for u, _v, w in vertex_ensemble_edges(
                    self.trees, v, self.weighting, self._prio
                )
            }
            local_ins = []
            local_dels = []
            for u, w in new.items():
                prev = old.get(u)
                if prev is None:
                    local_ins.append((u, v, (w,)))
                elif w != prev:
                    local_dels.append(None if w < prev else (u, v))
                    local_ins.append((u, v, (w,)))
            for u in old:
                if u not in new:
                    local_dels.append((u, v))
            return v, new, local_ins, [d for d in local_dels if d]

        results = self.engine.parallel_for(
            sorted(vertices), patch_vertex,
            work_fn=lambda v, r: len(self.trees),
        )
        for v, new, local_ins, local_dels in results:
            old = self._in_edges[v]
            for u in set(old) - set(new):
                self._ensemble_graph.remove_edge(u, v)
            for u, w in new.items():
                prev = old.get(u)
                if prev is None:
                    self._ensemble_graph.add_edge(u, v, w)
                elif w != prev:
                    self._ensemble_graph.remove_edge(u, v)
                    self._ensemble_graph.add_edge(u, v, w)
            self._in_edges[v] = new
            ins.extend(local_ins)
            dels.extend(local_dels)
        self.engine.charge(len(ins) + len(dels))
        return ChangeBatch.concat(
            ChangeBatch.deletions(dels, k=1),
            ChangeBatch.insertions(ins)
            if ins
            else ChangeBatch.deletions([], k=1),
        )

    # ------------------------------------------------------------------
    def update(self, batch: Optional[ChangeBatch] = None) -> MOSPResult:
        """Advance the warm state past one (already applied) batch.

        Runs Algorithm 1 on each per-objective tree, patches the
        ensemble graph with the diff, and repairs the ensemble SOSP
        tree with the fully dynamic update — no from-scratch
        Bellman-Ford.  Returns a
        :class:`~repro.core.mosp_update.MOSPResult` with the same step
        timers as :func:`~repro.core.mosp_update.mosp_update` (the
        Bellman-Ford slot reports the incremental repair instead).
        """
        if self._ensemble_tree is None:  # pragma: no cover - defensive
            raise AlgorithmError("IncrementalMOSP not bootstrapped")
        n = self.graph.n
        k = self.graph.k
        result = MOSPResult(
            source=self.source,
            parent=np.full(n, -1, dtype=VERTEX_DTYPE),
            dist_vectors=np.full((n, k), INF, dtype=DIST_DTYPE),
            ensemble=None,  # type: ignore[arg-type]
        )
        eng = self.engine
        timed = _make_timed("incremental_mosp", result, eng)

        dirty: Optional[set] = None
        if batch is not None and batch.num_changes:
            dirty = set()
            for i in range(k):
                stats, touched = timed(
                    f"sosp_update_{i}",
                    lambda i=i: _update_tree_step1(
                        self.trees[i], batch, eng, self.graph
                    ),
                )
                _record_tree_stats(result, stats)
                dirty |= touched
        elif batch is not None:
            dirty = set()  # provably no churn

        ens_batch = timed(
            "ensemble", lambda: self._diff_and_patch(dirty)
        )
        timed(
            "bellman_ford",
            lambda: apply_mixed_batch(
                self._ensemble_graph, self._ensemble_tree, ens_batch,
                engine=eng,
            ),
        )
        timed("reassign", lambda: _reassign_real_weights(
            live_edge_arrays(self.graph), self.source, self._ensemble_tree.dist,
            self._ensemble_tree.parent, result.dist_vectors, self.trees,
        ))
        result.parent = self._ensemble_tree.parent.copy()
        return result

    def result(self) -> MOSPResult:
        """The current MOSP state without applying a batch."""
        return self.update(batch=None)

    @property
    def ensemble_tree(self) -> SOSPTree:
        """The warm SOSP tree over the combined graph (read-only use)."""
        assert self._ensemble_tree is not None
        return self._ensemble_tree

    @property
    def ensemble_graph(self) -> DiGraph:
        """The warm combined graph (read-only use)."""
        return self._ensemble_graph
