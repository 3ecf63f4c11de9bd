"""Martins' label-setting multi-objective shortest-path algorithm.

The classical exact algorithm (Martins 1984, the paper's [21]; improved
variants are its [3]): a lexicographic priority queue of labels; the
popped label is permanent iff not dominated by the labels already
settled at its vertex; permanent labels are extended along out-edges.
With non-negative weight vectors every Pareto-optimal path cost from
the source to every vertex is enumerated.

This is the *full Pareto front* baseline the paper's heuristic
(Algorithm 2) deliberately avoids: its output size can be exponential
in the worst case, which is exactly the cost/benefit the benchmark
``bench_mosp_vs_full_pareto`` quantifies.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.errors import AlgorithmError, VertexError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.mosp.dominance import dominates_or_equal
from repro.mosp.labels import Label, LabelSet
from repro.types import DIST_DTYPE, FloatArray

__all__ = ["martins", "MartinsResult"]


@dataclass
class MartinsResult:
    """Full Pareto-optimal solution from one source.

    Attributes
    ----------
    source:
        The source vertex.
    labels:
        ``labels[v]`` is the list of Pareto-optimal :class:`Label`
        objects of vertex ``v`` (empty if unreachable).
    pops, inserts:
        Work counters (labels settled / queue pushes) for the
        cost-comparison benchmarks.
    """

    source: int
    labels: List[List[Label]]
    pops: int
    inserts: int

    def front(self, v: int) -> FloatArray:
        """``(f, k)`` Pareto front of distance vectors at vertex ``v``."""
        labs = self.labels[v]
        if not labs:
            return np.empty((0, 0), dtype=DIST_DTYPE)
        return np.asarray([lab.dist for lab in labs], dtype=DIST_DTYPE)

    def paths(self, v: int) -> List[List[int]]:
        """All Pareto-optimal source→``v`` paths."""
        return [lab.path() for lab in self.labels[v]]

    def num_labels(self) -> int:
        """Total number of Pareto-optimal labels over all vertices."""
        return sum(len(ls) for ls in self.labels)


def martins(
    graph: Union[DiGraph, CSRGraph],
    source: int,
    max_labels: Optional[int] = None,
) -> MartinsResult:
    """Enumerate every Pareto-optimal path cost from ``source``.

    Parameters
    ----------
    graph:
        Graph whose edges carry ``k``-objective weight vectors.  A
        :class:`CSRGraph` is compacted in place
        (:meth:`CSRGraph.ensure`), as the other static solvers do.
    source:
        Source vertex.
    max_labels:
        Safety valve: abort with :class:`AlgorithmError` if more than
        this many labels settle (fronts can grow exponentially).
        ``None`` = unlimited.

    Returns
    -------
    :class:`MartinsResult`

    Examples
    --------
    >>> from repro.graph import DiGraph
    >>> g = DiGraph(3, k=2)
    >>> _ = g.add_edge(0, 1, (1.0, 10.0))
    >>> _ = g.add_edge(0, 1, (10.0, 1.0))
    >>> r = martins(g, 0)
    >>> sorted(map(tuple, r.front(1).tolist()))
    [(1.0, 10.0), (10.0, 1.0)]
    """
    csr = CSRGraph.ensure(graph)
    n = csr.n
    if not 0 <= source < n:
        raise VertexError(source, n, "martins source")
    k = csr.k

    settled: List[LabelSet] = [LabelSet() for _ in range(n)]
    tie = itertools.count()  # FIFO tiebreak for equal vectors
    root = Label(source, tuple([0.0] * k))
    heap: List[Tuple[Tuple[float, ...], int, Label]] = [(root.dist, next(tie), root)]
    pops = 0
    inserts = 1

    indptr, indices, weights = csr.indptr, csr.indices, csr.weights

    while heap:
        _, _, lab = heapq.heappop(heap)
        v = lab.vertex
        # discard if (weakly) dominated by a settled label of v
        if any(dominates_or_equal(s.dist, lab.dist) for s in settled[v].labels):
            continue
        settled[v].insert(lab)
        pops += 1
        if max_labels is not None and pops > max_labels:
            raise AlgorithmError(
                f"martins exceeded max_labels={max_labels}; "
                "the Pareto front is too large for exact enumeration"
            )
        dv = np.asarray(lab.dist, dtype=DIST_DTYPE)
        for e in range(indptr[v], indptr[v + 1]):
            u = int(indices[e])
            nd = tuple((dv + weights[e]).tolist())
            # prune against u's settled labels before queueing
            if any(dominates_or_equal(s.dist, nd) for s in settled[u].labels):
                continue
            child = Label(u, nd, parent=v, parent_label=lab)
            heapq.heappush(heap, (nd, next(tie), child))
            inserts += 1

    return MartinsResult(
        source=source,
        labels=[s.labels for s in settled],
        pops=pops,
        inserts=inserts,
    )
