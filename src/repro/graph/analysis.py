"""Structural graph analysis: components, BFS, degree and diameter stats.

Used by the dataset registry to verify stand-ins match their paper
dataset's topology class, by the examples for reachability reporting,
and generally handy for downstream users.  Everything is from scratch
(no networkx in ``src/``).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Union

import numpy as np

from repro.errors import VertexError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.types import VERTEX_DTYPE, IntArray

__all__ = [
    "bfs_hops",
    "weakly_connected_components",
    "largest_wcc_fraction",
    "degree_statistics",
    "estimate_effective_diameter",
    "graph_summary",
]


def _to_csr(graph: Union[DiGraph, CSRGraph]) -> CSRGraph:
    return graph if isinstance(graph, CSRGraph) else CSRGraph.from_digraph(graph)


def bfs_hops(graph: Union[DiGraph, CSRGraph], source: int) -> IntArray:
    """Hop distance from ``source`` along directed edges (-1 if
    unreachable)."""
    csr = _to_csr(graph)
    if not 0 <= source < csr.n:
        raise VertexError(source, csr.n, "bfs source")
    hops = np.full(csr.n, -1, dtype=VERTEX_DTYPE)
    hops[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in csr.out_neighbors(u):
            if hops[v] < 0:
                hops[v] = hops[u] + 1
                queue.append(int(v))
    return hops


def weakly_connected_components(
    graph: Union[DiGraph, CSRGraph]
) -> List[List[int]]:
    """Vertex lists of the weakly connected components (largest first)."""
    csr = _to_csr(graph)
    seen = np.zeros(csr.n, dtype=bool)
    components: List[List[int]] = []
    for start in range(csr.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in csr.out_neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    comp.append(int(v))
                    queue.append(int(v))
            for v in csr.in_neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    comp.append(int(v))
                    queue.append(int(v))
        components.append(comp)
    components.sort(key=len, reverse=True)
    return components


def largest_wcc_fraction(graph: Union[DiGraph, CSRGraph]) -> float:
    """|largest weakly connected component| / n (0.0 for empty graphs)."""
    csr = _to_csr(graph)
    if csr.n == 0:
        return 0.0
    return len(weakly_connected_components(csr)[0]) / csr.n


def degree_statistics(graph: Union[DiGraph, CSRGraph]) -> Dict[str, float]:
    """Out-degree statistics: mean, max, standard deviation, and the
    fraction of sink vertices (out-degree zero)."""
    csr = _to_csr(graph)
    if csr.n == 0:
        return {"mean": 0.0, "max": 0.0, "std": 0.0, "sinks": 0.0}
    deg = np.diff(csr.indptr).astype(float)
    return {
        "mean": float(deg.mean()),
        "max": float(deg.max()),
        "std": float(deg.std()),
        "sinks": float((deg == 0).mean()),
    }


def estimate_effective_diameter(
    graph: Union[DiGraph, CSRGraph],
    samples: int = 8,
    quantile: float = 0.9,
    seed: int = 0,
) -> float:
    """Sampled effective diameter: the ``quantile`` of finite BFS hop
    distances over ``samples`` random sources.

    The exact diameter costs O(n·m); a handful of BFS runs gives the
    scale that matters for shortest-path workloads (propagation depth,
    Bellman-Ford round counts).
    """
    csr = _to_csr(graph)
    if csr.n == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    sources = rng.choice(csr.n, size=min(samples, csr.n), replace=False)
    values = []
    for s in sources:
        hops = bfs_hops(csr, int(s))
        finite = hops[hops >= 0]
        if len(finite) > 1:
            values.append(float(np.quantile(finite, quantile)))
    return max(values) if values else 0.0


def graph_summary(graph: Union[DiGraph, CSRGraph]) -> Dict[str, object]:
    """One-stop structural profile (used by dataset reporting)."""
    csr = _to_csr(graph)
    deg = degree_statistics(csr)
    return {
        "vertices": csr.n,
        "edges": csr.m,
        "objectives": csr.k,
        "avg_out_degree": round(deg["mean"], 3),
        "max_out_degree": int(deg["max"]),
        "largest_wcc_fraction": round(largest_wcc_fraction(csr), 4),
        "effective_diameter": estimate_effective_diameter(csr),
    }
