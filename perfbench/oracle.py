"""Correctness checks, run outside the timed window.

Every check compares against from-scratch Dijkstra (``repro.sssp``), the
paper's recompute baseline.  Distances must match bitwise: the update is
a fixpoint computation with a unique answer, so any difference is a bug.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, List, Tuple

import numpy as np

from repro.sssp import dijkstra


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of two float64 arrays (``inf`` included)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def check_tree(
    dist: np.ndarray, graph: Any, source: int, objective: int, recorder: Any
) -> Tuple[bool, float, np.ndarray]:
    """Compare one served distance array with Dijkstra on ``graph``.

    Returns ``(ok, recompute_seconds, reference_dist)``.
    """
    with recorder.span("sssp.dijkstra", objective=objective):
        t0 = perf_counter()
        ref, _ = dijkstra(graph, source, objective)
        took = perf_counter() - t0
    return same_bits(dist, ref), took, ref


def mosp_paths_consistent(result: Any, graph: Any, reference: np.ndarray) -> bool:
    """Every reachable vertex's MOSP parent path, summed hop by hop with
    real edge weights, equals its ``dist_vectors`` row bitwise.

    Checked per hop: for each reachable ``v`` some live edge
    ``(parent[v], v)`` has ``dist_vectors[parent[v]] + w ==
    dist_vectors[v]`` exactly, and the parent pointers reach the source
    without a cycle — together that is the path sum, in path order.
    ``reference`` is one objective's Dijkstra distances; the MOSP tree
    must reach exactly the vertices it reaches.
    """
    parent = np.asarray(result.parent)
    dv = np.asarray(result.dist_vectors)
    source = int(result.source)
    n = parent.shape[0]
    reach = np.isfinite(dv).all(axis=1)
    if not np.array_equal(reach, np.isfinite(reference)):
        return False
    if not (dv[source] == 0.0).all():
        return False
    src, dst, w = graph.edge_arrays()
    on_tree = (parent[dst] == src) & reach[dst]
    s, d = src[on_tree], dst[on_tree]
    exact = (dv[s] + w[on_tree] == dv[d]).all(axis=1)
    covered = np.zeros(n, dtype=bool)
    covered[d[exact]] = True
    covered[source] = True
    if not covered[reach].all():
        return False
    # pointer doubling: every reachable vertex's ancestor chain ends at
    # the source (a cycle never gets there)
    anc = np.where(reach, parent, source)
    anc[source] = source
    for _ in range(max(1, int(n).bit_length() + 1)):
        anc = anc[anc]
    return bool((anc[reach] == source).all())


def check_trees(
    trees: List[Any], graph: Any, recorder: Any
) -> Tuple[bool, List[float], List[np.ndarray]]:
    """Check every per-objective tree; returns ``(ok, seconds, refs)``."""
    ok = True
    seconds: List[float] = []
    refs: List[np.ndarray] = []
    for t in trees:
        good, took, ref = check_tree(
            t.dist, graph, t.source, t.objective, recorder
        )
        ok = ok and good
        seconds.append(took)
        refs.append(ref)
    return ok, seconds, refs
