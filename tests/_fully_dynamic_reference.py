"""Reference Step D of the fully dynamic pipeline: the per-vertex walk.

The invalidation pass of ``repro.core.fully_dynamic.apply_mixed_batch``
as it was first written — test each deletion / weight-change record
one at a time, then breadth-first walk the dirty subtrees over one
Python list of children per vertex.  The library now runs the root
predicate over all records at once and sweeps the subtrees over the
tree's child CSR (``SOSPTree.subtree``); this module keeps the walk as
the oracle the differential tests compare it against
(``tests/test_invalidate_differential.py``).
"""

from __future__ import annotations

from collections import deque
from typing import List, Set

import numpy as np

from repro.core.fully_dynamic import MixedUpdateStats
from repro.core.tree import SOSPTree
from repro.dynamic.changes import ChangeBatch
from repro.graph.digraph import DiGraph
from repro.types import NO_PARENT, IntArray


def children_lists(tree: SOSPTree) -> List[List[int]]:
    """Adjacency of the tree itself: ``children[p]`` lists the
    vertices whose parent is ``p`` (used by the deletion phase)."""
    children: List[List[int]] = [[] for _ in range(tree.num_vertices)]
    for v in range(tree.num_vertices):
        p = int(tree.parent[v])
        if p != NO_PARENT and v != tree.source:
            children[p].append(v)
    return children


def invalidate_reference(
    graph: DiGraph,
    tree: SOSPTree,
    batch: ChangeBatch,
    stats: MixedUpdateStats,
) -> Set[int]:
    """Step D: collect the dirty set without mutating the tree yet.

    A deletion or weight-change record ``(u, v)`` cuts ``v`` loose iff
    ``v``'s parent pointer crosses that edge and no surviving parallel
    ``(u, v)`` edge certifies a distance ``≤ dist[v]``.  The test is
    strictly one-sided (``nd > dist[v]``): a weight drop on the parent
    edge leaves ``dist[v]`` a valid upper bound, and the matching Step-I
    stimulus lowers it without the invalidation churn.
    """
    dist = tree.dist
    parent = tree.parent
    objective = tree.objective

    del_src, del_dst = batch.delete_records()
    wc_src, wc_dst, _wc_w = batch.weight_change_records()
    pairs = zip(
        np.concatenate((del_src, wc_src)).tolist(),
        np.concatenate((del_dst, wc_dst)).tolist(),
    )
    roots: List[int] = []
    seen_roots: Set[int] = set()
    for u, v in pairs:
        if v in seen_roots or parent[v] != u or not np.isfinite(dist[v]):
            continue
        nd = dist[u] + graph.min_weight_between(u, v, objective)
        if nd > dist[v] and not np.isclose(nd, dist[v]):
            roots.append(v)
            seen_roots.add(v)
    stats.dirty_roots = len(roots)
    if not roots:
        return set()

    children = children_lists(tree)
    dirty: Set[int] = set()
    queue = deque(roots)
    while queue:
        v = queue.popleft()
        if v in dirty:
            continue
        dirty.add(v)
        queue.extend(children[v])
    stats.invalidated = len(dirty)
    return dirty


def invalidate_reference_sorted(
    graph: DiGraph,
    tree: SOSPTree,
    batch: ChangeBatch,
    stats: MixedUpdateStats,
) -> IntArray:
    """:func:`invalidate_reference` in the library's return shape (the
    sorted dirty array), for swapping in as the pipeline's Step D."""
    dirty = invalidate_reference(graph, tree, batch, stats)
    return np.asarray(sorted(dirty), dtype=np.int64)
