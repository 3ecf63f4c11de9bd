"""Compressed sparse-row (CSR) graphs, mutated in place batch by batch.

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
A :class:`CSRGraph` is the one graph the update pipelines read and
their long-lived owners (the update service, the ``update-demo`` loop)
mutate.  Re-freezing it after every change batch
would cost O(|E|), wiping out the point of an O(affected) update
algorithm, so its one mutator, :meth:`apply_batch`, follows an
**append-or-rebuild policy**: inserted edges land in a small COO
*tail* (``tail_src`` / ``tail_dst`` / ``tail_weights``) in
O(|batch|); only when the tail outgrows ``max(MIN_TAIL_REBUILD,
TAIL_REBUILD_FRACTION * m)`` is the whole structure re-frozen, so the
amortised per-batch cost stays O(|batch|).  The per-vertex query
methods merge the tail transparently; whole-array consumers
(``indptr``/``indices``/``src``/...) see only the frozen base and must
call :meth:`compact` first — or go through :meth:`ensure`, which
static solvers use at their entry points (so a static solve compacts
the graph in place).

Mixed batches in one pass (the fully dynamic story)
---------------------------------------------------
:meth:`apply_batch` applies a mixed batch of insertions, deletions and
weight changes in record order, in O(|batch| + degree) — never
O(tail).  A deleted edge is *tombstoned* in place: its weight row
(base or tail) becomes ``+inf``, which no shortest-path relaxation can
ever improve through.  A weight change overwrites its target row.
Both target the live matching edge with the lexicographically smallest
weight vector, first in row order on ties (base rows, then tail rows),
mirroring :meth:`DiGraph.remove_edge`, so an incrementally maintained
snapshot stays edge-multiset-equal to its digraph.

The target is found through a **pair index**: a dict from the pair
key ``u * n + v`` to the tuple of that pair's tail rows, in row order.
A record's candidates are the base slice ``indptr[u]:indptr[u+1]``
(rows whose head is ``v``) plus the tail rows the index lists.  The
pass appends all the batch's insertions to the tail in one
concatenate, but a row joins the index only when the loop reaches its
record, so a deletion never sees an edge inserted after it.  The pass
extends the index in place (an epoch of one or two edits costs one or
two dict entries); :meth:`compact` resets it; a pickled or copied snapshot drops
it and rebuilds it from its tail on first use.  The same index backs
:meth:`min_weight_between`, the live-weight lookup of the update
pipelines.  The pass compacts at most once, after its last record.

Mutating a base row bumps :attr:`base_stamp` (tail rows bump
:attr:`tail_stamp`), so shared-memory engines re-plant exactly the
arrays that changed.  Tombstones are physically dropped at the next
:meth:`compact`; until then ``num_edges`` discounts them, structural
queries (``out_neighbors``/``in_neighbors``/degrees) may still report
the dead endpoints, and weight queries return their ``inf`` rows —
harmless to the relaxation kernels, which only ever take minima.
"""

from __future__ import annotations

import itertools
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import GraphError, VertexError, WeightError
from repro.graph.digraph import DiGraph
from repro.types import (
    DIST_DTYPE,
    KIND_DELETE,
    KIND_INSERT,
    VERTEX_DTYPE,
    FloatArray,
    IntArray,
)

if TYPE_CHECKING:  # circular at runtime: dynamic.changes uses graphs
    from repro.dynamic.changes import ChangeBatch

__all__ = ["CSRGraph", "gather_ranges"]


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
        "_pairs",
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
        #: :meth:`apply_batch`.  Discounted from :attr:`num_edges` and
        #: physically dropped by :meth:`compact`.
        self.num_dead = 0
        self._freeze(src, dst, weights)
        self.tail_src = np.empty(0, dtype=VERTEX_DTYPE)
        self.tail_dst = np.empty(0, dtype=VERTEX_DTYPE)
        self.tail_weights = np.empty((0, self.k), dtype=DIST_DTYPE)

    def __getstate__(self) -> dict:
        # the pair index is derived from the tail: a copy rebuilds it
        # on first use instead of shipping it
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        state["_pairs"] = None
        return state

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
        #: Pair index over the tail (see the module docstring); ``None``
        #: until first use on a copy.
        self._pairs: Optional[Dict[int, Tuple[int, ...]]] = {}

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

        Changes when :meth:`_freeze` runs (construction,
        :meth:`compact`, the rebuild branch of :meth:`apply_batch`) and
        when a batch overwrites or tombstones a base row, so a
        shared-memory engine can re-plant
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

    def _check_records(
        self, src: IntArray, dst: IntArray, weights: FloatArray
    ) -> None:
        """Refuse records before anything is mutated: a vertex outside
        ``[0, n)`` raises :class:`VertexError`, weight rows of another
        arity :class:`GraphError`, non-finite or negative weights
        :class:`WeightError`.  ``weights`` holds only the rows that
        carry a weight (deletions carry none)."""
        if len(src):
            ids = np.concatenate((src, dst))
            bad = ids[(ids < 0) | (ids >= self.n)]
            if bad.size:
                raise VertexError(int(bad[0]), self.n)
        if len(weights):
            if weights.shape[1] != self.k:
                raise GraphError(
                    f"batch weights have k={weights.shape[1]}, snapshot "
                    f"has k={self.k}"
                )
            if not np.isfinite(weights).all() or (weights < 0).any():
                raise WeightError("edge weights must be finite and >= 0")

    def _pair_rows(self) -> Dict[int, Tuple[int, ...]]:
        """The tail's pair index, rebuilt from the tail if a copy
        dropped it."""
        if self._pairs is None:
            self._pairs = {}
            keys = (self.tail_src * self.n + self.tail_dst).tolist()
            for row, key in enumerate(keys):
                self._pairs[key] = self._pairs.get(key, ()) + (row,)
        return self._pairs

    def _base_matches(
        self, src: IntArray, dst: IntArray
    ) -> Tuple[IntArray, IntArray]:
        """Every base row of every pair ``(src[i], dst[i])``: returns
        ``(owner, rows)`` with ``owner`` the pair's position ``i``, in
        ``(i, row)`` order."""
        lo, hi = self.indptr[src], self.indptr[src + 1]
        rows, _ = gather_ranges(lo, hi)
        owner = np.repeat(np.arange(len(src), dtype=np.int64), hi - lo)
        hit = self.indices[rows] == dst[owner]
        return owner[hit], rows[hit]

    def _lexmin_live(
        self, base_rows: Sequence[int], tail_rows: Sequence[int]
    ) -> Tuple[int, int]:
        """The target of a deletion or weight change: among one pair's
        candidate rows, the live one with the lexicographically
        smallest weight vector, the first in row order on ties (base
        rows, then tail rows).  Returns ``(where, row)``, ``where`` 0 =
        base, 1 = tail, ``(-1, -1)`` when no candidate is live."""
        best_where, best_row = -1, -1
        best_w: List[float] = []
        for where, arr, rows in ((0, self.weights, base_rows),
                                 (1, self.tail_weights, tail_rows)):
            for row in rows:
                w = arr[row].tolist()
                if w[0] != np.inf and (best_where < 0 or w < best_w):
                    best_where, best_row, best_w = where, row, w
        return best_where, best_row

    def apply_batch(self, batch: "ChangeBatch") -> None:
        """Apply a mixed :class:`~repro.dynamic.changes.ChangeBatch` in
        record order, the CSR twin of
        :meth:`~repro.dynamic.changes.ChangeBatch.apply_to`.

        One pass, O(|batch| + degree): every record is checked first
        (:meth:`_check_records`), so a bad record leaves the snapshot
        untouched; the insertions are appended to the tail in one
        concatenate and join the pair index as the loop reaches them;
        deletions tombstone and weight changes overwrite the
        :meth:`_lexmin_live` row among the base slice and the indexed
        tail rows of their pair.  Compacts at most once, after the
        pass.  After ``batch.apply_to(graph)`` +
        ``snapshot.apply_batch(batch)`` the snapshot's live edge
        multiset equals the digraph's.
        """
        self._apply(batch)

    def append_batch(self, batch: "ChangeBatch") -> None:
        """Apply an insertion-only
        :class:`~repro.dynamic.changes.ChangeBatch` — :meth:`apply_batch`
        behind a guard that rejects deletion and weight-change
        records."""
        if batch.num_deletions or batch.num_weight_changes:
            raise GraphError(
                "append_batch takes insertion batches only; use "
                "apply_batch() for mixed insert/delete/weight-change "
                "batches"
            )
        self._apply(batch)

    def _apply(self, batch: "ChangeBatch") -> None:
        """The one pass behind :meth:`apply_batch` and
        :meth:`append_batch`."""
        src, dst, weights, kind = batch.src, batch.dst, batch.weights, batch.kind
        self._check_records(src, dst, weights[kind != KIND_DELETE])
        ins = kind == KIND_INSERT
        pairs = self._pair_rows()  # before the tail grows
        next_row = self.num_tail_edges
        if ins.any():
            self.tail_src = np.concatenate((self.tail_src, src[ins]))
            self.tail_dst = np.concatenate((self.tail_dst, dst[ins]))
            self.tail_weights = np.concatenate(
                (self.tail_weights, weights[ins])
            )
            self.tail_version += 1
        mut = ~ins
        owner, rows = self._base_matches(src[mut], dst[mut])
        bounds = np.searchsorted(
            owner, np.arange(int(np.count_nonzero(mut)) + 1)
        ).tolist()
        base_rows = rows.tolist()
        j = 0
        base_touched = tail_touched = False
        for i, (key, code) in enumerate(
            zip((src * self.n + dst).tolist(), kind.tolist())
        ):
            if code == KIND_INSERT:
                pairs[key] = pairs.get(key, ()) + (next_row,)
                next_row += 1
                continue
            where, row = self._lexmin_live(
                base_rows[bounds[j]:bounds[j + 1]], pairs.get(key, ())
            )
            j += 1
            if where < 0:
                continue
            arr = self.weights if where == 0 else self.tail_weights
            if code == KIND_DELETE:
                arr[row] = np.inf
                self.num_dead += 1
            else:
                arr[row] = weights[i]
            if where == 0:
                base_touched = True
            else:
                tail_touched = True
        if base_touched:
            self.base_version += 1
        if tail_touched:
            self.tail_version += 1
        # the rebuild half of the append-or-rebuild policy
        limit = max(self.MIN_TAIL_REBUILD,
                    int(self.TAIL_REBUILD_FRACTION * self.m))
        if self.num_tail_edges > limit:
            self.compact()

    def min_weight_between(
        self, src: IntArray, dst: IntArray, objective: int = 0
    ) -> FloatArray:
        """Smallest ``objective`` weight over the live edges of each
        pair ``(src[i], dst[i])``; ``inf`` where none is live.

        The vectorised twin of :meth:`DiGraph.min_weight_between`
        (bitwise equal on a synced snapshot): one gather over the base
        slices plus a pair-index lookup per pair.  Tombstones weigh
        ``inf`` and never win the minimum.
        """
        src = np.asarray(src, dtype=VERTEX_DTYPE)
        dst = np.asarray(dst, dtype=VERTEX_DTYPE)
        out = np.full(src.shape[0], np.inf, dtype=DIST_DTYPE)
        owner, rows = self._base_matches(src, dst)
        np.minimum.at(out, owner, self.weights[rows, objective])
        if self.num_tail_edges:
            pairs = self._pair_rows()
            keys = (src * self.n + dst).tolist()
            tails = [pairs.get(key, ()) for key in keys]
            hit_rows = list(itertools.chain.from_iterable(tails))
            if hit_rows:
                owner = np.repeat(
                    np.arange(len(tails)), [len(t) for t in tails]
                )
                np.minimum.at(
                    out, owner, self.tail_weights[hit_rows, objective]
                )
        return out

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


def gather_ranges(
    starts: IntArray, ends: IntArray
) -> Tuple[IntArray, IntArray]:
    """Concatenate the index ranges ``[starts[i], ends[i])``.

    Returns ``(idx, seg_starts)``: ``idx`` is the concatenation of all
    ranges (so ``arr[idx]`` gathers every range of ``arr`` in one
    call), and ``seg_starts`` is the ``(s+1,)`` boundary array of each
    range's slice inside ``idx``.  Empty ranges are allowed.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    deg = ends - starts
    seg_starts = np.zeros(len(deg) + 1, dtype=np.int64)
    np.cumsum(deg, out=seg_starts[1:])
    total = int(seg_starts[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64), seg_starts
    idx = np.arange(total, dtype=np.int64) + np.repeat(
        starts - seg_starts[:-1], deg
    )
    return idx, seg_starts
