"""Reference Algorithm 2: the per-vertex Python pipeline.

Algorithm 2 as it was first written, kept as the oracle the
differential tests compare the library's array kernels against:

- :func:`reassign_real_weights` — the final move: visit the vertices of
  the combined-graph SOSP tree in distance order and add each hop's
  real weight vector, found by scanning ``DiGraph.out_edges`` (the
  library runs ``repro.core.mosp_update._reassign_real_weights``;
  ``tests/test_mosp_reassign_differential.py``);
- :func:`build_ensemble_reference` — Step 2 as one Python task per
  vertex, each running :func:`vertex_ensemble_edges` (the library runs
  the slab kernel behind ``repro.core.ensemble.build_ensemble``);
- :func:`mosp_update_reference` — the whole pipeline on those pieces,
  with Step 1 on ``tests._sosp_reference.sosp_update_reference`` and
  Step 3 on the push-based ``repro.sssp.bellman_ford`` kernels over the
  combined graph's CSR;
- :func:`live_edge_arrays` — every live edge of a ``CSRGraph`` as
  arrays, the input the reassignment kernel searched before it read
  the CSR itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ensemble import EnsembleGraph, resolve_weighting
from repro.core.mosp_update import MOSPResult, _make_timed
from repro.core.tree import SOSPTree
from repro.dynamic.changes import ChangeBatch
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.parallel.api import Engine, resolve_engine
from repro.sssp.bellman_ford import frontier_bellman_ford
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


def vertex_ensemble_edges(
    trees: Sequence[SOSPTree],
    v: int,
    weighting: str = "balanced",
    prio: Optional[FloatArray] = None,
) -> List[Tuple[int, int, float]]:
    """The combined-graph in-edges of vertex ``v``: compare ``v``'s
    parents across all trees (the paper's per-vertex task, §4) and
    weigh each distinct parent edge by the scheme.

    ``prio`` is the pre-validated priorities array from
    :func:`~repro.core.ensemble.resolve_weighting` (``None`` for
    balanced/unit).
    """
    k = len(trees)
    found: Dict[int, Tuple[int, float]] = {}
    for i in range(k):
        t = trees[i]
        p = int(t.parent[v])
        if p == NO_PARENT or not np.isfinite(t.dist[v]):
            continue
        pw = (1.0 / prio[i]) if prio is not None else 0.0
        if p in found:
            count, best = found[p]
            found[p] = (count + 1, min(best, pw))
        else:
            found[p] = (1, pw)
    out: List[Tuple[int, int, float]] = []
    for p, (cnt, pw) in found.items():
        if weighting == "balanced":
            w = float(k - cnt + 1)
        elif weighting == "unit":
            w = 1.0
        else:
            w = pw
        out.append((p, v, w))
    return out


def build_ensemble_reference(
    trees: Sequence[SOSPTree],
    engine: Optional[Engine] = None,
    weighting: str = "balanced",
    priorities: Optional[Sequence[float]] = None,
) -> EnsembleGraph:
    """Step 2 with one Python task per vertex: compare ``v``'s parents
    across all trees (:func:`vertex_ensemble_edges`)
    and write its distinct parents, in ascending order, into the first
    slots of column ``v``."""
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

    parents = np.full((k, n), n, dtype=VERTEX_DTYPE)
    weights = np.full((k, n), INF, dtype=DIST_DTYPE)
    counts = np.zeros((k, n), dtype=np.int64)
    for rows in per_vertex:
        for j, (p, v, weight) in enumerate(sorted(rows)):
            parents[j, v] = p
            weights[j, v] = weight
            # recover the occurrence count independently of the scheme
            counts[j, v] = sum(
                1 for t in trees
                if int(t.parent[v]) == p and np.isfinite(t.dist[v])
            )
    eng.charge(sum(len(rows) for rows in per_vertex))
    return EnsembleGraph(parents=parents, weights=weights, counts=counts)


def live_edge_arrays(
    snapshot: CSRGraph,
) -> Tuple[IntArray, IntArray, FloatArray]:
    """Every live edge of ``snapshot`` as ``(src, dst, weights)``.

    One per-vertex walk over each live forward range, in slot order,
    tombstones (``inf`` weight rows) filtered.
    """
    rows = [
        slot
        for u in range(snapshot.n)
        for slot in range(int(snapshot.indptr[u]), int(snapshot.out_end[u]))
        if np.isfinite(snapshot.weights[slot, 0])
    ]
    rows_a = np.asarray(rows, dtype=np.int64)
    return (
        snapshot.src[rows_a].astype(np.int64),
        snapshot.indices[rows_a].astype(np.int64),
        snapshot.weights[rows_a],
    )


def mosp_update_reference(
    graph: DiGraph,
    trees: Sequence[SOSPTree],
    batch: Optional[ChangeBatch] = None,
    engine: Optional[Engine] = None,
    weighting: str = "balanced",
    priorities: Optional[Sequence[float]] = None,
) -> MOSPResult:
    """Algorithm 2 on the reference pieces, with the step timers (and
    the ``mosp_update.<key>`` spans) of
    :func:`repro.core.mosp_update.mosp_update`.  Insertion batches
    only (Step 1 is :func:`sosp_update_reference`)."""
    k = graph.num_objectives
    source = trees[0].source
    eng = resolve_engine(engine)
    seconds: Dict[str, float] = {}
    virtual_seconds: Dict[str, float] = {}
    timed = _make_timed(eng, seconds, virtual_seconds)
    update_stats = []
    if batch is not None and batch.num_changes:
        for i in range(k):
            update_stats.append(timed(
                f"sosp_update_{i}",
                lambda i=i: sosp_update_reference(graph, trees[i], batch, eng),
            ))
    ensemble = timed("ensemble", lambda: build_ensemble_reference(
        trees, engine=eng, weighting=weighting, priorities=priorities,
    ))
    dist_c, parent_c = timed(
        "bellman_ford",
        lambda: frontier_bellman_ford(ensemble.csr, source, engine=eng),
    )
    dist_vectors = np.full((graph.num_vertices, k), INF, dtype=DIST_DTYPE)
    timed("reassign", lambda: reassign_real_weights(
        graph, source, dist_c, parent_c, dist_vectors, trees,
    ))
    eng.charge(int(np.isfinite(dist_c).sum()))
    return MOSPResult(
        source=source,
        parent=parent_c,
        dist_vectors=dist_vectors,
        ensemble=ensemble,
        update_stats=update_stats,
        step_seconds=seconds,
        step_virtual_seconds=virtual_seconds,
    )
