"""Reference Algorithm 2: the per-vertex Python pipeline.

Algorithm 2 as it was first written, kept as the oracle the
differential tests compare the library's array kernels against:

- :func:`reassign_real_weights` — the final move: visit the vertices of
  the combined-graph SOSP tree in distance order and add each hop's
  real weight vector, found by scanning ``DiGraph.out_edges`` (the
  library runs ``repro.core.mosp_update._reassign_real_weights``;
  ``tests/test_mosp_reassign_differential.py``);
- :func:`build_ensemble_reference` — Step 2 as one Python task per
  vertex (the library runs the slab kernel behind
  ``repro.core.ensemble.build_ensemble``);
- :func:`mosp_update_reference` — the whole pipeline on those pieces,
  with Step 1 on ``tests._sosp_reference.sosp_update_reference`` and
  Step 3 on the push-based ``repro.sssp.bellman_ford`` kernels.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.ensemble import (
    EnsembleGraph,
    _make_ensemble,
    resolve_weighting,
    vertex_ensemble_edges,
)
from repro.core.mosp_update import MOSPResult, _make_timed
from repro.core.tree import SOSPTree
from repro.dynamic.changes import ChangeBatch
from repro.errors import AlgorithmError
from repro.graph.digraph import DiGraph
from repro.parallel.api import Engine, resolve_engine
from repro.sssp.bellman_ford import frontier_bellman_ford, parallel_bellman_ford
from repro.types import DIST_DTYPE, INF, NO_PARENT, VERTEX_DTYPE, FloatArray, IntArray
from tests._sosp_reference import sosp_update_reference


def representative_weight(
    g: DiGraph,
    u: int,
    v: int,
    trees: Optional[Sequence[SOSPTree]] = None,
) -> FloatArray:
    """The weight vector used when re-assigning hop ``(u, v)``.

    Simple graphs have exactly one choice.  Among parallel edges the
    hop is priced with an edge some per-objective tree certifies (the
    parallel edge with the minimal ``i``-th component for each tree
    ``i`` whose parent of ``v`` is ``u``); among the certified
    candidates (or all parallels, when no tree owns the hop) the
    lexicographically smallest vector wins.
    """
    parallels: List[FloatArray] = []
    for vv, eid in g.out_edges(u):
        if vv == v:
            parallels.append(g.weight(eid))
    if not parallels:
        raise AlgorithmError(
            f"combined-tree edge ({u}, {v}) does not exist in the graph"
        )
    candidates = parallels
    if trees is not None and len(parallels) > 1:
        certified = [
            min(parallels, key=lambda w: (w[t.objective], *tuple(w)))
            for t in trees
            if t.parent[v] == u
        ]
        if certified:
            candidates = certified
    return min(candidates, key=tuple)


def reassign_real_weights(
    g: DiGraph,
    source: int,
    dist_c: FloatArray,
    parent_c: IntArray,
    out: FloatArray,
    trees: Optional[Sequence[SOSPTree]] = None,
) -> None:
    """Walk the combined-graph SOSP tree in distance order (parents
    precede children), summing the original multi-weights into
    ``out``."""
    order = np.argsort(dist_c, kind="stable")
    out[source] = 0.0
    for v in order:
        v = int(v)
        if v == source or not np.isfinite(dist_c[v]):
            continue
        p = int(parent_c[v])
        if p == NO_PARENT:
            continue
        out[v] = out[p] + representative_weight(g, p, v, trees)


def build_ensemble_reference(
    trees: Sequence[SOSPTree],
    engine: Optional[Engine] = None,
    weighting: str = "balanced",
    priorities: Optional[Sequence[float]] = None,
) -> EnsembleGraph:
    """Step 2 with one Python task per vertex: compare ``v``'s parents
    across all trees (:func:`~repro.core.ensemble.vertex_ensemble_edges`)
    and gather the weighted edge list in vertex order."""
    if not trees:
        raise AlgorithmError("need at least one SOSP tree")
    k = len(trees)
    n = trees[0].num_vertices
    prio = resolve_weighting(weighting, priorities, k)
    eng = resolve_engine(engine)

    per_vertex = eng.parallel_for(
        list(range(n)),
        lambda v: vertex_ensemble_edges(trees, v, weighting, prio),
        work_fn=lambda v, r: k,
    )

    src: List[int] = []
    dst: List[int] = []
    w: List[float] = []
    cnt: List[int] = []
    for rows in per_vertex:
        for p, v, weight in rows:
            # recover the occurrence count from the balanced formula
            # independently of the active scheme
            cnt.append(sum(
                1 for t in trees
                if int(t.parent[v]) == p and np.isfinite(t.dist[v])
            ))
            src.append(p)
            dst.append(v)
            w.append(weight)
    eng.charge(len(src))
    return _make_ensemble(
        n, k,
        np.asarray(src, dtype=VERTEX_DTYPE),
        np.asarray(dst, dtype=VERTEX_DTYPE),
        np.asarray(w, dtype=DIST_DTYPE),
        np.asarray(cnt, dtype=np.int64),
    )


def mosp_update_reference(
    graph: DiGraph,
    trees: Sequence[SOSPTree],
    batch: Optional[ChangeBatch] = None,
    engine: Optional[Engine] = None,
    weighting: str = "balanced",
    priorities: Optional[Sequence[float]] = None,
    step3: str = "frontier",
) -> MOSPResult:
    """Algorithm 2 on the reference pieces, with the step timers of
    :func:`repro.core.mosp_update.mosp_update`.  Insertion batches
    only (Step 1 is :func:`sosp_update_reference`)."""
    k = graph.num_objectives
    source = trees[0].source
    eng = resolve_engine(engine)
    result = MOSPResult(
        source=source,
        parent=np.full(graph.num_vertices, NO_PARENT, dtype=np.int64),
        dist_vectors=np.full((graph.num_vertices, k), INF, dtype=DIST_DTYPE),
        ensemble=None,  # type: ignore[arg-type]
    )
    timed = _make_timed("mosp_update_reference", result, eng)
    if batch is not None and batch.num_changes:
        for i in range(k):
            stats = timed(
                f"sosp_update_{i}",
                lambda i=i: sosp_update_reference(graph, trees[i], batch, eng),
            )
            result.update_stats.append(stats)
    ensemble = timed("ensemble", lambda: build_ensemble_reference(
        trees, engine=eng, weighting=weighting, priorities=priorities,
    ))
    result.ensemble = ensemble
    step3_kernel = {
        "frontier": frontier_bellman_ford,
        "rounds": parallel_bellman_ford,
    }[step3]
    dist_c, parent_c = timed(
        "bellman_ford", lambda: step3_kernel(ensemble.csr, source, engine=eng)
    )
    result.parent = parent_c
    timed("reassign", lambda: reassign_real_weights(
        graph, source, dist_c, parent_c, result.dist_vectors, trees,
    ))
    eng.charge(int(np.isfinite(dist_c).sum()))
    return result
