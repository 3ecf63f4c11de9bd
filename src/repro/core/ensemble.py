"""Algorithm 2, Step 2: the combined (ensemble) graph.

"The algorithm first creates an ensemble graph E by considering all the
edges from the SOSP trees T_i ∀i = 1..k.  If an edge e ∈ E appears in x
number of SOSP trees, then the balanced approach assigns edge weight
(k − x + 1) to that edge.  This approach assigns less weight to edges
that appear in more SOSP trees while assigning more weight to uncommon
edges." (§3.2)

Implementation follows §4: "we directly use the parent-child
relationship in the tree structure to find the edges.  We assign a
single thread to each vertex to compare its parents among all the SOSP
trees" — here at array granularity: each engine slab covers a vertex
range of the stacked ``(k, n)`` parent matrix, counts how many trees
share each parent edge with one sort + segment count, and the slabs'
outputs concatenate into the weighted edge list.

Weighting schemes
-----------------
``balanced``   ``k − x + 1`` (the paper's default).
``priority``   an edge contributed by tree ``T_i`` gets weight
               inversely proportional to objective ``i``'s priority
               (the paper's prioritised variant); an edge in several
               trees takes its smallest weight.
``unit``       every ensemble edge weighs 1 (the Theorem 1 setting, and
               the control arm of the weighting ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.tree import SOSPTree
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph
from repro.parallel.api import (
    Engine,
    SlabTask,
    parallel_for_slabs,
    resolve_engine,
)
from repro.types import (
    DIST_DTYPE,
    NO_PARENT,
    VERTEX_DTYPE,
    FloatArray,
    IntArray,
    WeightVector,
)

__all__ = ["build_ensemble", "EnsembleGraph", "vertex_ensemble_edges",
           "resolve_weighting"]


def resolve_weighting(
    weighting: str, priorities: Optional[WeightVector], k: int
) -> Optional[FloatArray]:
    """Validate the weighting scheme; return the priorities array (or
    ``None`` for non-priority schemes)."""
    if weighting not in ("balanced", "priority", "unit"):
        raise AlgorithmError(
            f"unknown weighting {weighting!r}; "
            "expected balanced | priority | unit"
        )
    if weighting != "priority":
        return None
    if priorities is None:
        raise AlgorithmError("priority weighting requires priorities")
    prio = np.asarray(priorities, dtype=DIST_DTYPE)
    if prio.shape != (k,) or not np.all(np.isfinite(prio) & (prio > 0)):
        raise AlgorithmError(
            f"priorities must be {k} finite positive values, got "
            f"{priorities!r}"
        )
    return prio


def vertex_ensemble_edges(
    trees: Sequence["SOSPTree"],
    v: int,
    weighting: str = "balanced",
    prio: Optional[FloatArray] = None,
) -> List[Tuple[int, int, float]]:
    """The combined-graph in-edges of vertex ``v``: compare ``v``'s
    parents across all trees (the paper's per-vertex task, §4) and
    weigh each distinct parent edge by the scheme.

    ``prio`` is the pre-validated priorities array from
    :func:`resolve_weighting` (``None`` for balanced/unit).
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


@dataclass(eq=False)
class EnsembleGraph:
    """The combined graph plus its bookkeeping.

    Attributes
    ----------
    csr:
        Single-objective :class:`~repro.graph.csr.CSRGraph` over the
        original vertex set, containing every SOSP-tree edge once with
        its scheme weight.
    num_trees:
        ``k``, the number of trees merged.
    edge_src, edge_dst, edge_count:
        The ensemble edges in emission order (destination-ascending)
        and how many trees contain each one (the ``x`` of the
        ``k − x + 1`` formula).
    """

    csr: CSRGraph
    num_trees: int
    edge_src: IntArray
    edge_dst: IntArray
    edge_count: IntArray

    @cached_property
    def occurrences(self) -> Dict[Tuple[int, int], int]:
        """``{(u, v): x}`` — the per-edge counts as a dict, built on
        first access (tests and ablations read it; the pipeline does
        not)."""
        return dict(zip(
            zip(self.edge_src.tolist(), self.edge_dst.tolist()),
            self.edge_count.tolist(),
        ))


def _ensemble_slab(
    arrays, params, lo: int, hi: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Slab kernel of the vectorised parent comparison (read-only).

    Consumes the stacked ``(k, n)`` parent/dist matrices through the
    slab-kernel signature, so the shm backend can dispatch it by
    reference over planted copies while every other engine runs the
    same body as a closure.  Emits the slab's deduplicated
    ``(dst, src, weight, count)`` quadruple sorted by vertex.
    """
    parents = arrays["ens.parents"]
    dists = arrays["ens.dists"]
    k, n = parents.shape
    valid = (parents[:, lo:hi] != NO_PARENT) & np.isfinite(dists[:, lo:hi])
    ti, vo = np.nonzero(valid)
    if ti.size == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e, np.empty(0, dtype=DIST_DTYPE), e
    v = vo + lo
    p = parents[ti, v]
    key = v * n + p  # v-major, parent-minor pair key
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    cuts = np.flatnonzero(np.diff(key_s)) + 1
    seg = np.concatenate(([0], cuts, [key_s.size]))
    uniq = key_s[seg[:-1]]
    cnt = np.diff(seg)
    weighting = params["weighting"]
    if weighting == "balanced":
        w = (k - cnt + 1).astype(DIST_DTYPE)
    elif weighting == "unit":
        w = np.ones(uniq.size, dtype=DIST_DTYPE)
    else:
        pw = arrays["ens.inv_prio"][ti[order]]
        w = np.minimum.reduceat(pw, seg[:-1])
    # key = v*n + p, so parent (edge source) is the remainder
    return uniq % n, uniq // n, w, cnt


def _ensemble_edges(
    trees: Sequence[SOSPTree],
    weighting: str,
    prio,
    eng: Engine,
):
    """The vectorised per-vertex parent comparison.

    Stacks the ``(k, n)`` parent/dist matrices, covers the vertex range
    with engine slabs (:func:`~repro.parallel.api.parallel_for_slabs`),
    and inside each slab deduplicates the valid ``(v, parent)`` pairs
    with one sort + segment count.  Pairs are emitted sorted by ``v``
    within each slab, and slabs are concatenated in order, so the
    emission order is ``v``-ascending overall — the order of a
    per-vertex loop over :func:`vertex_ensemble_edges`.
    """
    k = len(trees)
    n = trees[0].num_vertices
    parents = np.stack([t.parent for t in trees]).astype(np.int64)
    dists = np.stack([t.dist for t in trees])
    inv_prio = (1.0 / prio) if prio is not None else None

    arrays: Dict[str, np.ndarray] = {"ens.parents": parents, "ens.dists": dists}
    if inv_prio is not None:
        arrays["ens.inv_prio"] = np.ascontiguousarray(inv_prio, dtype=DIST_DTYPE)
    task = SlabTask(
        ref="repro.core.ensemble:_ensemble_slab",
        arrays=arrays,
        params={"weighting": weighting},
        writes=(),  # read-only kernel: nothing to copy back
    )
    results = parallel_for_slabs(
        eng, n, task, work_fn=lambda span, r: k * (span[1] - span[0]),
    )
    if not results:
        e = np.empty(0, dtype=np.int64)
        return e, e, e.astype(DIST_DTYPE), e
    return tuple(
        np.concatenate([r[i] for r in results]) for i in range(4)
    )


def build_ensemble(
    trees: Sequence[SOSPTree],
    engine: Optional[Engine] = None,
    weighting: str = "balanced",
    priorities: Optional[Sequence[float]] = None,
) -> EnsembleGraph:
    """Merge the per-objective SOSP trees into the combined graph.

    Parameters
    ----------
    trees:
        The ``k`` updated SOSP trees (same source, same vertex count).
    engine:
        Execution engine; the per-vertex parent comparison is one
        parallel superstep over vertex slabs, as in the paper's OpenMP
        custom-reduction implementation.
    weighting:
        ``"balanced"`` | ``"priority"`` | ``"unit"`` (see module
        docstring).
    priorities:
        Required for ``"priority"``: positive per-objective priorities;
        higher priority ⇒ lower ensemble weight ⇒ more likely chosen.

    Returns
    -------
    :class:`EnsembleGraph`
    """
    if not trees:
        raise AlgorithmError("need at least one SOSP tree")
    k = len(trees)
    n = trees[0].num_vertices
    source = trees[0].source
    for t in trees:
        if t.num_vertices != n:
            raise AlgorithmError("trees span different vertex counts")
        if t.source != source:
            raise AlgorithmError(
                f"trees have different sources ({t.source} != {source})"
            )
    prio = resolve_weighting(weighting, priorities, k)
    eng = resolve_engine(engine)

    e_src, e_dst, e_w, e_cnt = _ensemble_edges(trees, weighting, prio, eng)
    eng.charge(len(e_src))
    return _make_ensemble(n, k, e_src, e_dst, e_w, e_cnt)


def _make_ensemble(
    n: int,
    k: int,
    src: IntArray,
    dst: IntArray,
    w: FloatArray,
    cnt: IntArray,
) -> EnsembleGraph:
    """Freeze the gathered ensemble edges into an :class:`EnsembleGraph`."""
    src = src.astype(VERTEX_DTYPE, copy=False)
    dst = dst.astype(VERTEX_DTYPE, copy=False)
    csr = CSRGraph(n, src, dst, w.astype(DIST_DTYPE).reshape(-1, 1))
    return EnsembleGraph(csr=csr, num_trees=k, edge_src=src,
                         edge_dst=dst, edge_count=cnt)
