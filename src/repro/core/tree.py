"""The SOSP tree: parent + distance arrays.

"We store the SOSP tree as a parent-child relationship among the
vertices.  Each element of the SOSP tree contains the Parent vertex,
and Distance from the source." (§4)

:class:`SOSPTree` is exactly that pair of arrays plus the source and
objective it was computed for.  It is the mutable state that
:func:`~repro.core.sosp_update.sosp_update` updates in place.
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np

from repro.core.kernels import gather_ranges
from repro.errors import NotReachableError, VertexError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.sssp.recompute import recompute_sssp
from repro.sssp.verify import certify_sssp
from repro.types import NO_PARENT, BoolArray, FloatArray, IntArray

__all__ = ["SOSPTree", "child_csr"]


def child_csr(parent: IntArray, keep: BoolArray) -> Tuple[IntArray, IntArray]:
    """Child CSR ``(indptr, kids)`` of the forest ``parent``.

    The children of ``p`` are ``kids[indptr[p]:indptr[p + 1]]``, in
    ascending vertex order.  Only the vertices marked in ``keep`` are
    anybody's child; it must exclude every vertex without a parent.
    """
    n = parent.shape[0]
    kids = np.flatnonzero(keep)
    par = parent[kids]
    kids = kids[np.argsort(par, kind="stable")]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(par, minlength=n), out=indptr[1:])
    return indptr, kids


class SOSPTree:
    """A single-objective shortest-path tree rooted at ``source``.

    Attributes
    ----------
    source:
        Root vertex.
    objective:
        Which objective of the graph's weight vectors this tree
        minimises.
    dist:
        ``(n,)`` float64 — shortest known distance per vertex
        (``inf`` = unreachable).
    parent:
        ``(n,)`` int64 — predecessor per vertex (``-1`` for the source
        and unreachable vertices).

    Examples
    --------
    >>> from repro.graph import DiGraph
    >>> g = DiGraph.from_edge_list(3, [(0, 1, 2.0), (1, 2, 2.0)])
    >>> t = SOSPTree.build(g, source=0)
    >>> t.dist.tolist()
    [0.0, 2.0, 4.0]
    >>> t.path_to(2)
    [0, 1, 2]
    """

    __slots__ = ("source", "objective", "dist", "parent")

    def __init__(
        self, source: int, dist: FloatArray, parent: IntArray,
        objective: int = 0,
    ) -> None:
        self.source = int(source)
        self.objective = int(objective)
        self.dist = np.asarray(dist, dtype=np.float64)
        self.parent = np.asarray(parent, dtype=np.int64)
        if self.dist.shape != self.parent.shape:
            raise VertexError(
                len(self.parent), len(self.dist), "dist/parent length mismatch"
            )

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Union[DiGraph, CSRGraph],
        source: int,
        objective: int = 0,
        algorithm: str = "dijkstra",
    ) -> "SOSPTree":
        """Compute the tree from scratch with a static SSSP solver."""
        dist, parent = recompute_sssp(graph, source, objective, algorithm)
        return cls(source, dist, parent, objective)

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices the tree spans (including unreachable)."""
        return len(self.dist)

    def copy(self) -> "SOSPTree":
        """Independent deep copy."""
        return SOSPTree(
            self.source, self.dist.copy(), self.parent.copy(), self.objective
        )

    def reachable_mask(self) -> BoolArray:
        """Boolean mask of vertices with finite distance."""
        return np.isfinite(self.dist)

    def path_to(self, v: int) -> List[int]:
        """The tree path ``source → v``.

        Raises :class:`NotReachableError` when ``v`` is unreachable.
        """
        if not 0 <= v < self.num_vertices:
            raise VertexError(v, self.num_vertices, "path_to")
        if not np.isfinite(self.dist[v]):
            raise NotReachableError(self.source, v)
        path = [v]
        seen = {v}
        while path[-1] != self.source:
            p = int(self.parent[path[-1]])
            if p == NO_PARENT or p in seen:
                raise NotReachableError(self.source, v)
            path.append(p)
            seen.add(p)
        path.reverse()
        return path

    def tree_edges(self) -> List[tuple]:
        """``(parent[v], v)`` for every reachable non-source vertex."""
        out = []
        for v in range(self.num_vertices):
            p = int(self.parent[v])
            if v != self.source and p != NO_PARENT and np.isfinite(self.dist[v]):
                out.append((p, v))
        return out

    def child_index(self) -> Tuple[IntArray, IntArray]:
        """Adjacency of the tree itself as a child CSR ``(indptr, kids)``.

        The children of ``p`` are ``kids[indptr[p]:indptr[p + 1]]``, in
        ascending vertex order.  The source and vertices without a
        parent are nobody's child.
        """
        has_parent = self.parent != NO_PARENT
        has_parent[self.source] = False
        return child_csr(self.parent, has_parent)

    def subtree(self, roots: IntArray) -> IntArray:
        """Sorted vertices of the subtrees hanging from ``roots``
        (roots included; repeats allowed), swept level by level over
        :meth:`child_index`.  The index is built only when ``roots`` is
        non-empty."""
        roots = np.asarray(roots, dtype=np.int64)
        if roots.size == 0:
            return np.empty(0, dtype=np.int64)
        indptr, kids = self.child_index()
        seen = np.zeros(self.num_vertices, dtype=bool)
        seen[roots] = True
        frontier = np.flatnonzero(seen)
        while frontier.size:
            idx, _ = gather_ranges(indptr[frontier], indptr[frontier + 1])
            frontier = kids[idx]
            # nested roots (or a corrupted parent cycle) revisit vertices
            frontier = frontier[~seen[frontier]]
            seen[frontier] = True
        return np.flatnonzero(seen)

    def certify(self, graph: Union[DiGraph, CSRGraph]) -> None:
        """Raise unless this tree is a correct SSSP solution for
        ``graph`` (see :func:`repro.sssp.verify.certify_sssp`)."""
        certify_sssp(graph, self.source, self.dist, self.parent,
                     self.objective)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        reach = int(np.isfinite(self.dist).sum())
        return (
            f"SOSPTree(source={self.source}, objective={self.objective}, "
            f"n={self.num_vertices}, reachable={reach})"
        )
