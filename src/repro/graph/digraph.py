"""A mutable directed graph with multi-objective edge weights.

The paper stores the adjacency list and the changed edges as "arrays of
structures"; the natural Python equivalent keeping numerical work in
numpy is a structure of arrays: endpoint lists per vertex plus one
``(m, k)`` float64 weight matrix shared by all edges.

Design notes
------------
- Vertices are dense integers ``0..n-1``.  :meth:`DiGraph.add_vertices`
  grows the vertex set; vertex deletion is expressed as deletion of the
  incident edges (the paper makes the same reduction in §2.2).
- Edge insertion is O(1) amortised: endpoints are appended to python
  lists, weights to a geometrically grown numpy buffer.
- Edge deletion is by tombstone: the edge id is marked inactive and
  skipped during iteration; :meth:`DiGraph.compact` rebuilds dense
  storage when the tombstone fraction grows.
- Parallel edges are allowed (repeated insertions of ``(u, v)`` create
  independent edge records).  Shortest-path algorithms handle them
  naturally; helpers such as :meth:`DiGraph.min_weight_between` exist
  for callers that want the effective simple-graph view.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import BatchError, EdgeError, VertexError, WeightError
from repro.types import (
    DIST_DTYPE,
    KIND_DELETE,
    KIND_INSERT,
    VERTEX_DTYPE,
    FloatArray,
    WeightLike,
)

if TYPE_CHECKING:  # circular at runtime: dynamic.changes uses graphs
    from repro.dynamic.changes import ChangeBatch

__all__ = ["DiGraph"]

_INITIAL_CAPACITY = 16


class DiGraph:
    """A dynamic directed graph whose edges carry ``k``-objective weights.

    Parameters
    ----------
    n:
        Initial number of vertices (ids ``0..n-1``).
    k:
        Number of objectives; every edge weight is a length-``k``
        vector.  ``k=1`` gives an ordinary weighted digraph.

    Examples
    --------
    >>> g = DiGraph(4, k=2)
    >>> g.add_edge(0, 1, (3.0, 5.0))
    0
    >>> g.add_edge(1, 2, (1.0, 1.0))
    1
    >>> g.num_edges
    2
    >>> list(g.out_edges(0))
    [(1, 0)]
    >>> g.weight(0).tolist()
    [3.0, 5.0]
    """

    __slots__ = (
        "_n",
        "_k",
        "_out",
        "_in",
        "_src",
        "_dst",
        "_weights",
        "_alive",
        "_m",
        "_num_dead",
    )

    def __init__(self, n: int = 0, k: int = 1) -> None:
        if n < 0:
            raise VertexError(n, 0, "initial vertex count must be >= 0")
        if k < 1:
            raise WeightError(f"number of objectives must be >= 1, got {k}")
        self._n = int(n)
        self._k = int(k)
        # adjacency: per-vertex lists of edge ids
        self._out: List[List[int]] = [[] for _ in range(n)]
        self._in: List[List[int]] = [[] for _ in range(n)]
        # edge storage (structure of arrays)
        self._src: List[int] = []
        self._dst: List[int] = []
        self._weights = np.empty((_INITIAL_CAPACITY, k), dtype=DIST_DTYPE)
        self._alive: List[bool] = []
        self._m = 0  # number of live edges
        self._num_dead = 0

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of *live* (non-deleted) edges."""
        return self._m

    @property
    def num_objectives(self) -> int:
        """Number of objectives ``k`` carried by every edge weight."""
        return self._k

    @property
    def num_edge_slots(self) -> int:
        """Total edge records including tombstones (internal ids range)."""
        return len(self._src)

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DiGraph(n={self._n}, m={self._m}, k={self._k}, "
            f"tombstones={self._num_dead})"
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_vertices(self, count: int) -> int:
        """Append ``count`` new vertices; return the first new id."""
        if count < 0:
            raise VertexError(count, 0, "cannot add a negative vertex count")
        first = self._n
        self._n += count
        self._out.extend([] for _ in range(count))
        self._in.extend([] for _ in range(count))
        return first

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise VertexError(v, self._n)

    def _coerce_weight(self, weight) -> FloatArray:
        w = np.asarray(weight, dtype=DIST_DTYPE).reshape(-1)
        if w.shape[0] != self._k:
            raise WeightError(
                f"weight vector has {w.shape[0]} components, expected {self._k}"
            )
        if not np.all(np.isfinite(w)):
            raise WeightError(f"weight vector {w.tolist()} is not finite")
        if np.any(w < 0):
            raise WeightError(f"weight vector {w.tolist()} has negative components")
        return w

    def add_edge(self, u: int, v: int, weight: WeightLike) -> int:
        """Insert directed edge ``(u, v)`` with the given weight vector.

        Returns the edge id.  ``weight`` may be a scalar when ``k == 1``.
        Self-loops are allowed but never appear on shortest paths (all
        weights are non-negative).
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if self._k == 1 and np.isscalar(weight):
            weight = (float(weight),)
        w = self._coerce_weight(weight)
        eid = len(self._src)
        self._reserve(eid + 1)
        self._src.append(u)
        self._dst.append(v)
        self._weights[eid] = w
        self._alive.append(True)
        self._out[u].append(eid)
        self._in[v].append(eid)
        self._m += 1
        return eid

    def _reserve(self, slots: int) -> None:
        """Grow the weight buffer (geometrically) to hold ``slots``
        edge records."""
        cap = self._weights.shape[0]
        if slots > cap:
            grown = np.empty((max(2 * cap, slots), self._k), dtype=DIST_DTYPE)
            grown[:cap] = self._weights
            self._weights = grown

    def add_edges(self, edges: Iterable[Tuple[int, int, Sequence[float]]]) -> List[int]:
        """Insert many edges; return their edge ids."""
        return [self.add_edge(u, v, w) for (u, v, w) in edges]

    def remove_edge_id(self, eid: int) -> None:
        """Tombstone-delete the edge with id ``eid``."""
        if not 0 <= eid < len(self._src):
            raise EdgeError(f"edge id {eid} out of range")
        if not self._alive[eid]:
            raise EdgeError(f"edge id {eid} already deleted")
        self._alive[eid] = False
        self._m -= 1
        self._num_dead += 1

    def remove_edge(self, u: int, v: int) -> int:
        """Delete one live ``(u, v)`` edge; return its id.

        If parallel ``(u, v)`` edges exist the one with the
        lexicographically smallest weight vector is removed, which is
        the deletion that can actually change a shortest path.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        best = self._lexmin_live(u, v)
        if best is None:
            raise EdgeError(f"no live edge ({u}, {v}) to delete")
        self.remove_edge_id(best)
        return best

    def _lexmin_live(self, u: int, v: int) -> Optional[int]:
        """The target of a deletion or weight change of ``(u, v)``: the
        live parallel edge with the lexicographically smallest weight
        vector, the first in insertion order on ties; ``None`` when no
        live ``(u, v)`` edge exists."""
        dst, alive, w = self._dst, self._alive, self._weights
        best: Optional[int] = None
        for eid in self._out[u]:
            if dst[eid] == v and alive[eid] and (
                best is None or w[eid].tolist() < w[best].tolist()
            ):
                best = eid
        return best

    def set_weight(self, eid: int, weight: WeightLike) -> None:
        """Overwrite the weight vector of live edge ``eid``."""
        if not 0 <= eid < len(self._src) or not self._alive[eid]:
            raise EdgeError(f"edge id {eid} is not a live edge")
        if self._k == 1 and np.isscalar(weight):
            weight = (float(weight),)
        self._weights[eid] = self._coerce_weight(weight)

    def apply_batch(self, batch: "ChangeBatch") -> List[int]:
        """Apply a :class:`~repro.dynamic.changes.ChangeBatch` in record
        order in one pass; return the inserted edges' ids.

        Every record is checked first — vertex range and arity raise
        :class:`~repro.errors.BatchError`, a non-finite or negative
        weight :class:`~repro.errors.WeightError` — so a bad record
        leaves the graph untouched.  The inserted weight rows are then
        written in one slice, and the loop runs over plain lists.
        Deletions and weight changes target :meth:`_lexmin_live` at the
        moment their record is reached and skip when no live edge
        matches.  :meth:`~repro.dynamic.changes.ChangeBatch.apply_to`
        is the entry point.
        """
        src, dst, weights, kind = batch.src, batch.dst, batch.weights, batch.kind
        n = self._n
        if len(src) and (
            min(int(src.min()), int(dst.min())) < 0
            or max(int(src.max()), int(dst.max())) >= n
        ):
            raise BatchError(
                "batch references vertices outside the graph; "
                "grow the graph first with add_vertices()"
            )
        weighted = weights[kind != KIND_DELETE]
        if len(weighted):
            if weighted.shape[1] != self._k:
                raise BatchError(
                    f"batch k={weighted.shape[1]} != graph k={self._k}"
                )
            if not np.isfinite(weighted).all() or (weighted < 0).any():
                raise WeightError(
                    "batch weights must be finite and >= 0"
                )
        ins = kind == KIND_INSERT
        first = len(self._src)
        n_ins = int(np.count_nonzero(ins))
        self._reserve(first + n_ins)
        self._weights[first : first + n_ins] = weights[ins]
        out, inn, alive = self._out, self._in, self._alive
        eid = first
        for i, (u, v, code) in enumerate(
            zip(src.tolist(), dst.tolist(), kind.tolist())
        ):
            if code == KIND_INSERT:
                self._src.append(u)
                self._dst.append(v)
                alive.append(True)
                out[u].append(eid)
                inn[v].append(eid)
                eid += 1
                continue
            target = self._lexmin_live(u, v)
            if target is None:
                continue
            if code == KIND_DELETE:
                alive[target] = False
                self._m -= 1
                self._num_dead += 1
            else:
                self._weights[target] = weights[i]
        self._m += n_ins
        return list(range(first, eid))

    def compact(self) -> None:
        """Rebuild dense storage, dropping tombstones and remapping ids.

        Edge ids are invalidated.  Called automatically by no one; the
        owner decides when the ~2x memory of a rebuild is worth it.
        """
        if self._num_dead == 0:
            return
        alive_ids = [e for e in range(len(self._src)) if self._alive[e]]
        new_src = [self._src[e] for e in alive_ids]
        new_dst = [self._dst[e] for e in alive_ids]
        new_weights = np.empty(
            (max(_INITIAL_CAPACITY, len(alive_ids)), self._k), dtype=DIST_DTYPE
        )
        if alive_ids:
            new_weights[: len(alive_ids)] = self._weights[alive_ids]
        self._src = new_src
        self._dst = new_dst
        self._weights = new_weights
        self._alive = [True] * len(alive_ids)
        self._num_dead = 0
        self._out = [[] for _ in range(self._n)]
        self._in = [[] for _ in range(self._n)]
        for eid, (u, v) in enumerate(zip(self._src, self._dst)):
            self._out[u].append(eid)
            self._in[v].append(eid)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def edge_endpoints(self, eid: int) -> Tuple[int, int]:
        """Return ``(u, v)`` of edge ``eid`` (live or tombstoned)."""
        if not 0 <= eid < len(self._src):
            raise EdgeError(f"edge id {eid} out of range")
        return self._src[eid], self._dst[eid]

    def is_alive(self, eid: int) -> bool:
        """Whether edge ``eid`` is live."""
        if not 0 <= eid < len(self._src):
            raise EdgeError(f"edge id {eid} out of range")
        return self._alive[eid]

    def weight(self, eid: int) -> FloatArray:
        """The length-``k`` weight vector of edge ``eid`` (a view)."""
        if not 0 <= eid < len(self._src):
            raise EdgeError(f"edge id {eid} out of range")
        return self._weights[eid]

    def weight_scalar(self, eid: int, objective: int = 0) -> float:
        """One component of edge ``eid``'s weight vector."""
        return float(self.weight(eid)[objective])

    def weight_column(self, objective: int = 0) -> FloatArray:
        """A read-only view of one objective across all edge slots.

        Indexable by edge id (tombstoned slots included — callers
        iterate live edges only).  The view is invalidated by the next
        ``add_edge`` that grows the buffer; use it for tight read loops
        between mutations, as the update kernels do.
        """
        return self._weights[: len(self._src), objective]

    def out_edges(self, u: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(v, eid)`` for each live out-edge of ``u``."""
        self._check_vertex(u)
        for eid in self._out[u]:
            if self._alive[eid]:
                yield self._dst[eid], eid

    def in_edges(self, v: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(u, eid)`` for each live in-edge of ``v``."""
        self._check_vertex(v)
        for eid in self._in[v]:
            if self._alive[eid]:
                yield self._src[eid], eid

    def out_degree(self, u: int) -> int:
        """Number of live out-edges of ``u``."""
        return sum(1 for _ in self.out_edges(u))

    def in_degree(self, v: int) -> int:
        """Number of live in-edges of ``v``."""
        return sum(1 for _ in self.in_edges(v))

    def successors(self, u: int) -> Iterator[int]:
        """Yield the head of each live out-edge of ``u`` (with repeats)."""
        for v, _ in self.out_edges(u):
            yield v

    def predecessors(self, v: int) -> Iterator[int]:
        """Yield the tail of each live in-edge of ``v`` (with repeats)."""
        for u, _ in self.in_edges(v):
            yield u

    def has_edge(self, u: int, v: int) -> bool:
        """Whether any live ``(u, v)`` edge exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        return any(
            self._alive[eid] and self._dst[eid] == v for eid in self._out[u]
        )

    def min_weight_between(self, u: int, v: int, objective: int = 0) -> float:
        """Smallest ``objective`` component over live ``(u, v)`` edges.

        Returns ``inf`` when no live edge exists.
        """
        best = float("inf")
        for eid in self._out[u]:
            if self._alive[eid] and self._dst[eid] == v:
                w = float(self._weights[eid, objective])
                if w < best:
                    best = w
        return best

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(u, v, eid)`` for every live edge."""
        for eid in range(len(self._src)):
            if self._alive[eid]:
                yield self._src[eid], self._dst[eid], eid

    # ------------------------------------------------------------------
    # bulk views
    # ------------------------------------------------------------------
    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, FloatArray]:
        """Return ``(src, dst, weights)`` arrays over live edges.

        ``src``/``dst`` are ``int64`` of length ``m``; ``weights`` is
        ``(m, k)`` float64.  Row order is edge-insertion order.  The
        arrays are copies — safe to mutate.
        """
        alive = np.asarray(self._alive, dtype=bool)
        src = np.asarray(self._src, dtype=VERTEX_DTYPE)
        dst = np.asarray(self._dst, dtype=VERTEX_DTYPE)
        if len(src) == 0:
            return (
                np.empty(0, dtype=VERTEX_DTYPE),
                np.empty(0, dtype=VERTEX_DTYPE),
                np.empty((0, self._k), dtype=DIST_DTYPE),
            )
        w = self._weights[: len(src)]
        return src[alive].copy(), dst[alive].copy(), w[alive].copy()

    def copy(self) -> "DiGraph":
        """Deep copy (tombstones compacted away)."""
        g = DiGraph(self._n, self._k)
        for u, v, eid in self.edges():
            g.add_edge(u, v, self._weights[eid])
        return g

    def reverse(self) -> "DiGraph":
        """Return a new graph with every edge direction flipped."""
        g = DiGraph(self._n, self._k)
        for u, v, eid in self.edges():
            g.add_edge(v, u, self._weights[eid])
        return g

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_list(
        cls, n: int, edges: Iterable[Tuple], k: int = 1
    ) -> "DiGraph":
        """Build from ``(u, v, w)`` tuples (``w`` scalar when ``k==1``)."""
        g = cls(n, k)
        for item in edges:
            u, v, w = item[0], item[1], item[2]
            g.add_edge(u, v, w)
        return g
