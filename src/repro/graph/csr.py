"""Compressed sparse-row (CSR) snapshots of a digraph, with incremental append.

The vectorised kernels (Bellman-Ford rounds, batched relaxation of
affected frontiers) want cache-friendly contiguous arrays rather than
the pointer-chasing adjacency of :class:`~repro.graph.digraph.DiGraph`.
A :class:`CSRGraph` freezes a digraph into

- forward CSR: ``indptr``/``indices``/``weights`` sorted by source, and
- reverse CSR: the same edges sorted by destination, with ``edge_perm``
  mapping reverse positions back to forward edge rows,

so both "neighbours of u" and "predecessors of v" are O(degree) slices.

Incremental append (the dynamic-batch story)
--------------------------------------------
A frozen snapshot would force an O(|E|) re-freeze after every change
batch, wiping out the point of an O(affected) update algorithm.
:meth:`CSRGraph.append_edges` therefore follows an **append-or-rebuild
policy**: appended edges land in a small COO *tail* (``tail_src`` /
``tail_dst`` / ``tail_weights``) in O(|batch|); only when the tail
outgrows ``max(MIN_TAIL_REBUILD, TAIL_REBUILD_FRACTION * m)`` is the
whole structure re-frozen, so the amortised per-batch cost stays
O(|batch|).  The per-vertex query methods merge the tail transparently;
whole-array consumers (``indptr``/``indices``/``src``/...) see only the
frozen base and must call :meth:`compact` first — or go through
:meth:`ensure`, which static solvers use at their entry points.

Deletion and weight mutation (the fully dynamic story)
------------------------------------------------------
:meth:`delete_edges` and :meth:`update_edge_weights` extend the
incremental contract to the other two record kinds without an O(|E|)
re-freeze: a deleted edge is *tombstoned* in place — its weight row
(base or tail) becomes ``+inf``, which no shortest-path relaxation can
ever improve through — and a weight change overwrites its target row
directly.  Both target the live matching edge with the
lexicographically smallest weight vector, exactly mirroring
:meth:`DiGraph.remove_edge` semantics so an incrementally maintained
snapshot stays edge-multiset-equal to its digraph.  Mutating a base
row bumps :attr:`base_stamp` (tail rows bump :attr:`tail_stamp`), so
shared-memory engines re-plant exactly the arrays that changed.
Tombstones are physically dropped at the next :meth:`compact`;
until then ``num_edges`` discounts them, structural queries
(``out_neighbors``/``in_neighbors``/degrees) may still report the dead
endpoints, and weight queries return their ``inf`` rows — harmless to
the relaxation kernels, which only ever take minima.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterator, Tuple, Union

import numpy as np

from repro.errors import GraphError, VertexError
from repro.graph.digraph import DiGraph
from repro.types import DIST_DTYPE, VERTEX_DTYPE, FloatArray, IntArray

if TYPE_CHECKING:  # circular at runtime: dynamic.changes uses graphs
    from repro.dynamic.changes import ChangeBatch

__all__ = ["CSRGraph", "live_edge_arrays"]


class CSRGraph:
    """CSR snapshot with forward and reverse adjacency plus a COO tail.

    Attributes
    ----------
    n, m, k:
        Vertex count, **frozen-base** edge count, number of objectives.
        ``num_edges`` additionally counts the appended tail.
    indptr, indices:
        Forward CSR over the frozen base: out-neighbours of ``u`` are
        ``indices[indptr[u]:indptr[u+1]]``.
    weights:
        ``(m, k)`` float64, row ``i`` is the weight vector of forward
        edge ``i`` (head ``indices[i]``, tail given by the row's CSR
        bucket).
    rev_indptr, rev_indices:
        Reverse CSR: in-neighbours (predecessors) of ``v`` are
        ``rev_indices[rev_indptr[v]:rev_indptr[v+1]]``.
    edge_perm:
        ``rev`` position → forward edge row, i.e. the weight of the
        ``j``-th reverse edge is ``weights[edge_perm[j]]``.
    src:
        ``(m,)`` tail vertex of each forward edge row (the COO twin of
        the forward CSR, kept because edge-centric kernels want it).
    tail_src, tail_dst, tail_weights:
        Edges appended since the last freeze (COO, insertion order);
        empty on a compact snapshot.
    """

    #: Rebuild when the tail exceeds this fraction of the frozen base.
    TAIL_REBUILD_FRACTION = 0.25
    #: ... but never rebuild for tails smaller than this (absorbs tiny
    #: batches on tiny graphs without thrashing).
    MIN_TAIL_REBUILD = 64

    #: Process-wide snapshot identity source (see :attr:`uid`).
    _UID_SOURCE = itertools.count(1)

    __slots__ = (
        "n",
        "m",
        "k",
        "indptr",
        "indices",
        "weights",
        "src",
        "rev_indptr",
        "rev_indices",
        "edge_perm",
        "tail_src",
        "tail_dst",
        "tail_weights",
        "uid",
        "base_version",
        "tail_version",
        "num_dead",
    )

    def __init__(
        self,
        n: int,
        src: IntArray,
        dst: IntArray,
        weights: FloatArray,
    ) -> None:
        src, dst, weights = self._coerce_edges(src, dst, weights)
        if int(n) >= 0 and len(src) and (
            src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n
        ):
            raise VertexError(int(max(src.max(initial=0), dst.max(initial=0))), n)
        self.n = int(n)
        self.k = int(weights.shape[1])
        #: Process-unique snapshot id; together with the version
        #: counters it forms the fingerprints shared-memory engines use
        #: to skip re-copying unchanged arrays (see :attr:`base_stamp`).
        self.uid = next(self._UID_SOURCE)
        self.base_version = 0
        self.tail_version = 0
        #: Tombstoned (deleted-in-place) rows across base + tail; see
        #: :meth:`delete_edges`.  Discounted from :attr:`num_edges` and
        #: physically dropped by :meth:`compact`.
        self.num_dead = 0
        self._freeze(src, dst, weights)
        self.tail_src = np.empty(0, dtype=VERTEX_DTYPE)
        self.tail_dst = np.empty(0, dtype=VERTEX_DTYPE)
        self.tail_weights = np.empty((0, self.k), dtype=DIST_DTYPE)

    def __getstate__(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled/copied snapshot under a **fresh** uid.

        ``uid`` is process-local identity: a duplicate (pickle round
        trip, ``copy.deepcopy``) that kept the original's uid would
        present the same ``(uid, version)`` fingerprints while its
        array contents can diverge independently, so a shared-memory
        engine would skip re-planting and run kernels on stale data.
        Reassigning here keeps :attr:`base_stamp`/:attr:`tail_stamp`
        unique per live snapshot object.
        """
        for slot, value in state.items():
            setattr(self, slot, value)
        self.uid = next(self._UID_SOURCE)

    @staticmethod
    def _coerce_edges(
        src: IntArray, dst: IntArray, weights: FloatArray
    ) -> Tuple[IntArray, IntArray, FloatArray]:
        src = np.ascontiguousarray(src, dtype=VERTEX_DTYPE)
        dst = np.ascontiguousarray(dst, dtype=VERTEX_DTYPE)
        weights = np.ascontiguousarray(weights, dtype=DIST_DTYPE)
        if weights.ndim == 1:
            weights = weights.reshape(-1, 1)
        m = src.shape[0]
        if dst.shape[0] != m or weights.shape[0] != m:
            raise GraphError("src/dst/weights length mismatch")
        return src, dst, weights

    def _freeze(self, src: IntArray, dst: IntArray, weights: FloatArray) -> None:
        """(Re)build the sorted base arrays from COO edges."""
        n = self.n
        self.m = int(src.shape[0])
        self.base_version += 1

        # forward CSR: stable sort edges by src
        order = np.argsort(src, kind="stable")
        self.src = src[order]
        self.indices = dst[order]
        self.weights = weights[order]
        self.indptr = np.zeros(n + 1, dtype=VERTEX_DTYPE)
        np.add.at(self.indptr, self.src + 1, 1)
        np.cumsum(self.indptr, out=self.indptr)

        # reverse CSR: sort forward rows by dst
        rev_order = np.argsort(self.indices, kind="stable")
        self.edge_perm = rev_order.astype(VERTEX_DTYPE)
        self.rev_indices = self.src[rev_order]
        rev_dst = self.indices[rev_order]
        self.rev_indptr = np.zeros(n + 1, dtype=VERTEX_DTYPE)
        np.add.at(self.rev_indptr, rev_dst + 1, 1)
        np.cumsum(self.rev_indptr, out=self.rev_indptr)

    # ------------------------------------------------------------------
    @classmethod
    def from_digraph(cls, g: DiGraph) -> "CSRGraph":
        """Snapshot a :class:`DiGraph` (live edges only)."""
        src, dst, w = g.edge_arrays()
        return cls(g.num_vertices, src, dst, w)

    @classmethod
    def ensure(cls, graph: Union[DiGraph, "CSRGraph"]) -> "CSRGraph":
        """Coerce to a **compact** snapshot.

        A :class:`DiGraph` is frozen; a :class:`CSRGraph` with a tail
        is compacted in place (no-op when already compact).  This is
        the entry point the static SSSP solvers use, so an
        incrementally appended snapshot is always safe to hand to them.
        """
        if isinstance(graph, cls):
            graph.compact()
            return graph
        return cls.from_digraph(graph)

    # ------------------------------------------------------------------
    # incremental append (append-or-rebuild policy)
    # ------------------------------------------------------------------
    @property
    def num_tail_edges(self) -> int:
        """Edges currently in the appended COO tail."""
        return int(self.tail_src.shape[0])

    @property
    def num_edges(self) -> int:
        """Live edge count: frozen base plus appended tail, minus
        tombstoned rows."""
        return self.m + self.num_tail_edges - self.num_dead

    @property
    def is_compact(self) -> bool:
        """Whether all edges live in the sorted base (empty tail, no
        tombstones)."""
        return self.num_tail_edges == 0 and self.num_dead == 0

    @property
    def base_stamp(self) -> Tuple[int, int]:
        """Fingerprint of the frozen base arrays.

        Changes exactly when :meth:`_freeze` runs (construction,
        :meth:`compact`, the rebuild branch of :meth:`append_edges`),
        so a shared-memory engine can re-plant
        ``indptr``/``indices``/``weights``/reverse arrays only when the
        base actually changed — tail-only appends keep the stamp and
        cost zero copies.
        """
        return (self.uid, self.base_version)

    @property
    def tail_stamp(self) -> Tuple[int, int, int]:
        """Fingerprint of the COO tail (changes on every append or
        rebuild; includes the base version because :meth:`compact`
        empties the tail)."""
        return (self.uid, self.base_version, self.tail_version)

    def append_edges(
        self, src: IntArray, dst: IntArray, weights: FloatArray
    ) -> None:
        """Append a batch of edges in O(|batch|) amortised.

        New edges go to the COO tail; when the tail outgrows
        ``max(MIN_TAIL_REBUILD, TAIL_REBUILD_FRACTION * m)`` the whole
        snapshot is re-frozen (and the tail emptied).  Query methods
        see the appended edges immediately either way.
        """
        src, dst, weights = self._coerce_edges(src, dst, weights)
        if weights.shape[1] != self.k:
            raise GraphError(
                f"appended weights have k={weights.shape[1]}, snapshot "
                f"has k={self.k}"
            )
        if len(src) == 0:
            return
        if src.min() < 0 or src.max() >= self.n or dst.min() < 0 or dst.max() >= self.n:
            raise VertexError(
                int(max(src.max(initial=0), dst.max(initial=0))), self.n
            )
        self.tail_src = np.concatenate((self.tail_src, src))
        self.tail_dst = np.concatenate((self.tail_dst, dst))
        self.tail_weights = np.concatenate((self.tail_weights, weights))
        self.tail_version += 1
        limit = max(self.MIN_TAIL_REBUILD,
                    int(self.TAIL_REBUILD_FRACTION * self.m))
        if self.num_tail_edges > limit:
            self.compact()

    def append_batch(self, batch: "ChangeBatch") -> None:
        """Append the insertion records of a
        :class:`~repro.dynamic.changes.ChangeBatch` (duck-typed to
        avoid an import cycle).  Deletion and weight-change records are
        rejected — use :meth:`apply_batch` for mixed batches."""
        if getattr(batch, "num_deletions", 0) or getattr(
            batch, "num_weight_changes", 0
        ):
            raise GraphError(
                "append_batch takes insertion batches only; use "
                "apply_batch() for mixed insert/delete/weight-change "
                "batches"
            )
        src, dst, w = batch.insert_records()
        self.append_edges(src, dst, w)

    def apply_batch(self, batch: "ChangeBatch") -> None:
        """Apply a mixed :class:`~repro.dynamic.changes.ChangeBatch` in
        record order, the CSR twin of
        :meth:`~repro.dynamic.changes.ChangeBatch.apply_to`.

        Insertions append to the COO tail, deletions tombstone their
        target row, weight changes overwrite theirs; runs of
        consecutive insertions are appended in one O(|run|) call.
        After ``batch.apply_to(graph)`` + ``snapshot.apply_batch(batch)``
        the snapshot's live edge multiset equals the digraph's.
        """
        kind = np.asarray(batch.kind)
        b = int(kind.shape[0])
        i = 0
        while i < b:
            j = i + 1
            while j < b and kind[j] == kind[i]:
                j += 1
            code = int(kind[i])
            if code == 1:  # KIND_INSERT (duck-typed, no import cycle)
                self.append_edges(
                    batch.src[i:j], batch.dst[i:j], batch.weights[i:j]
                )
            elif code == 0:  # KIND_DELETE
                self.delete_edges(batch.src[i:j], batch.dst[i:j])
            else:  # KIND_WEIGHT
                self.update_edge_weights(
                    batch.src[i:j], batch.dst[i:j], batch.weights[i:j]
                )
            i = j

    def _find_live_min(self, u: int, v: int) -> Tuple[int, int]:
        """Locate the live ``(u, v)`` edge with the lexicographically
        smallest weight vector (the :meth:`DiGraph.remove_edge` target).

        Returns ``(where, row)`` with ``where`` 0 = base / 1 = tail, or
        ``(-1, -1)`` when no live edge matches.  Base rows precede tail
        rows in the scan, matching insertion order, so ties resolve to
        the same multiset outcome as the digraph.
        """
        best_where, best_row = -1, -1
        best_w: Tuple[float, ...] = ()
        for row in range(int(self.indptr[u]), int(self.indptr[u + 1])):
            if int(self.indices[row]) != v:
                continue
            w = tuple(self.weights[row])
            if not np.isfinite(w[0]):
                continue  # tombstone
            if best_where < 0 or w < best_w:
                best_where, best_row, best_w = 0, row, w
        if self.num_tail_edges:
            for row in np.flatnonzero(
                (self.tail_src == u) & (self.tail_dst == v)
            ):
                w = tuple(self.tail_weights[int(row)])
                if not np.isfinite(w[0]):
                    continue
                if best_where < 0 or w < best_w:
                    best_where, best_row, best_w = 1, int(row), w
        return best_where, best_row

    def delete_edges(self, src: IntArray, dst: IntArray) -> int:
        """Tombstone one live edge per ``(u, v)`` record, in order.

        The target row's weight vector becomes ``+inf`` — semantically
        deleted for every relaxation kernel (``dist + inf`` never
        improves anything) without disturbing the CSR layout.  Records
        with no live match are skipped (the idempotent semantics of
        :meth:`ChangeBatch.apply_to`).  Returns the number tombstoned.
        """
        src = np.ascontiguousarray(src, dtype=VERTEX_DTYPE)
        dst = np.ascontiguousarray(dst, dtype=VERTEX_DTYPE)
        removed = 0
        base_touched = tail_touched = False
        for u, v in zip(src.tolist(), dst.tolist()):
            where, row = self._find_live_min(int(u), int(v))
            if where < 0:
                continue
            if where == 0:
                self.weights[row, :] = np.inf
                base_touched = True
            else:
                self.tail_weights[row, :] = np.inf
                tail_touched = True
            self.num_dead += 1
            removed += 1
        if base_touched:
            self.base_version += 1
        if tail_touched:
            self.tail_version += 1
        return removed

    def update_edge_weights(
        self, src: IntArray, dst: IntArray, weights: FloatArray
    ) -> int:
        """Overwrite the weight vector of one live edge per record.

        Each ``(u, v, w)`` record re-resolves its target (the live
        lex-min parallel edge) *after* the previous record applied, so
        consecutive changes to one pair behave exactly like repeated
        :meth:`DiGraph.set_weight` calls through
        :meth:`ChangeBatch.apply_to`.  Records with no live match are
        skipped.  Returns the number of rows rewritten.
        """
        src, dst, weights = self._coerce_edges(src, dst, weights)
        if weights.shape[1] != self.k:
            raise GraphError(
                f"weight updates have k={weights.shape[1]}, snapshot "
                f"has k={self.k}"
            )
        changed = 0
        base_touched = tail_touched = False
        for i in range(len(src)):
            where, row = self._find_live_min(int(src[i]), int(dst[i]))
            if where < 0:
                continue
            if where == 0:
                self.weights[row] = weights[i]
                base_touched = True
            else:
                self.tail_weights[row] = weights[i]
                tail_touched = True
            changed += 1
        if base_touched:
            self.base_version += 1
        if tail_touched:
            self.tail_version += 1
        return changed

    def compact(self) -> None:
        """Merge the tail into the sorted base, dropping tombstoned
        rows (no-op when already compact)."""
        if self.is_compact:
            return
        src = np.concatenate((self.src, self.tail_src))
        dst = np.concatenate((self.indices, self.tail_dst))
        w = np.concatenate((self.weights, self.tail_weights))
        if self.num_dead:
            alive = np.isfinite(w).all(axis=1)
            src, dst, w = src[alive], dst[alive], w[alive]
        # un-sort is unnecessary: _freeze stable-sorts by src, and the
        # base is already src-sorted, so base rows keep their relative
        # order and tail rows land after them within each bucket.
        self._freeze(src, dst, w)
        self.num_dead = 0
        self.tail_src = np.empty(0, dtype=VERTEX_DTYPE)
        self.tail_dst = np.empty(0, dtype=VERTEX_DTYPE)
        self.tail_weights = np.empty((0, self.k), dtype=DIST_DTYPE)

    # ------------------------------------------------------------------
    def out_neighbors(self, u: int) -> IntArray:
        """Array of out-neighbour ids of ``u`` (may contain repeats)."""
        base = self.indices[self.indptr[u] : self.indptr[u + 1]]
        if self.num_tail_edges == 0:
            return base
        return np.concatenate((base, self.tail_dst[self.tail_src == u]))

    def out_weights(self, u: int, objective: int = 0) -> FloatArray:
        """Weights (one objective) of ``u``'s out-edges, aligned with
        :meth:`out_neighbors`."""
        base = self.weights[self.indptr[u] : self.indptr[u + 1], objective]
        if self.num_tail_edges == 0:
            return base
        return np.concatenate(
            (base, self.tail_weights[self.tail_src == u, objective])
        )

    def out_weight_vectors(self, u: int) -> FloatArray:
        """``(deg, k)`` weight vectors of ``u``'s out-edges."""
        base = self.weights[self.indptr[u] : self.indptr[u + 1]]
        if self.num_tail_edges == 0:
            return base
        return np.concatenate((base, self.tail_weights[self.tail_src == u]))

    def in_neighbors(self, v: int) -> IntArray:
        """Array of predecessor ids of ``v``."""
        base = self.rev_indices[self.rev_indptr[v] : self.rev_indptr[v + 1]]
        if self.num_tail_edges == 0:
            return base
        return np.concatenate((base, self.tail_src[self.tail_dst == v]))

    def in_weights(self, v: int, objective: int = 0) -> FloatArray:
        """Weights (one objective) of ``v``'s in-edges, aligned with
        :meth:`in_neighbors`."""
        rows = self.edge_perm[self.rev_indptr[v] : self.rev_indptr[v + 1]]
        base = self.weights[rows, objective]
        if self.num_tail_edges == 0:
            return base
        return np.concatenate(
            (base, self.tail_weights[self.tail_dst == v, objective])
        )

    def in_weight_vectors(self, v: int) -> FloatArray:
        """``(indeg, k)`` weight vectors of ``v``'s in-edges."""
        rows = self.edge_perm[self.rev_indptr[v] : self.rev_indptr[v + 1]]
        base = self.weights[rows]
        if self.num_tail_edges == 0:
            return base
        return np.concatenate((base, self.tail_weights[self.tail_dst == v]))

    def out_degree(self, u: int) -> int:
        """Out-degree of ``u``."""
        deg = int(self.indptr[u + 1] - self.indptr[u])
        if self.num_tail_edges:
            deg += int((self.tail_src == u).sum())
        return deg

    def in_degree(self, v: int) -> int:
        """In-degree of ``v``."""
        deg = int(self.rev_indptr[v + 1] - self.rev_indptr[v])
        if self.num_tail_edges:
            deg += int((self.tail_dst == v).sum())
        return deg

    def edges(self) -> Iterator[Tuple[int, int, FloatArray]]:
        """Yield ``(u, v, weight_vector)`` over all **live** edges
        (base, then appended tail); tombstoned rows are skipped."""
        for i in range(self.m):
            if np.isfinite(self.weights[i, 0]):
                yield int(self.src[i]), int(self.indices[i]), self.weights[i]
        for j in range(self.num_tail_edges):
            if np.isfinite(self.tail_weights[j, 0]):
                yield (
                    int(self.tail_src[j]),
                    int(self.tail_dst[j]),
                    self.tail_weights[j],
                )

    def average_degree(self) -> float:
        """Mean out-degree ``num_edges / n``."""
        return self.num_edges / self.n if self.n else 0.0

    def to_digraph(self) -> DiGraph:
        """Thaw back into a mutable :class:`DiGraph`."""
        g = DiGraph(self.n, self.k)
        for u, v, w in self.edges():
            g.add_edge(u, v, w)
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tail = f", tail={self.num_tail_edges}" if self.num_tail_edges else ""
        dead = f", dead={self.num_dead}" if self.num_dead else ""
        return f"CSRGraph(n={self.n}, m={self.m}, k={self.k}{tail}{dead})"


def live_edge_arrays(
    snapshot: CSRGraph,
) -> Tuple[IntArray, IntArray, FloatArray]:
    """Every live edge of ``snapshot`` as ``(src, dst, weights)``.

    Base rows come first, tail rows after, tombstones (``inf`` weight
    rows) filtered — the same per-destination candidate order a
    compaction would produce, so kernels see predecessors in the
    canonical order regardless of when the snapshot compacts.
    """
    src = np.concatenate(
        (np.asarray(snapshot.src), np.asarray(snapshot.tail_src))
    ).astype(np.int64)
    dst = np.concatenate(
        (np.asarray(snapshot.indices), np.asarray(snapshot.tail_dst))
    ).astype(np.int64)
    w = np.concatenate((snapshot.weights, snapshot.tail_weights))
    if snapshot.num_dead:
        alive = np.isfinite(w[:, 0])
        src, dst, w = src[alive], dst[alive], w[alive]
    return src, dst, w
