"""Compressed sparse-row (CSR) graphs, mutated in place batch by batch.

The vectorised kernels (Bellman-Ford rounds, batched relaxation of
affected frontiers) want cache-friendly contiguous arrays rather than
the pointer-chasing adjacency of :class:`~repro.graph.digraph.DiGraph`.
A :class:`CSRGraph` lays a digraph out as

- forward slots: ``indices``/``weights`` grouped by source, and
- reverse slots: the same edges grouped by destination, with
  ``edge_perm`` mapping each reverse slot to its forward slot,

so both "neighbours of u" and "predecessors of v" are one contiguous
O(degree) slice.

Per-vertex regions with slack (the dynamic-batch story)
-------------------------------------------------------
A :class:`CSRGraph` is the one graph the update pipelines read and
their long-lived owners (the update service, the ``update-demo`` loop)
mutate.  Re-freezing it after every change batch would cost O(|E|),
wiping out the point of an O(affected) update algorithm.  So each
vertex owns a *region* of forward slots ``[indptr[u], indptr[u+1])``
and a region of reverse slots ``[rev_indptr[v], rev_indptr[v+1])``,
of which only a prefix is *live*: ``[indptr[u], out_end[u])`` and
``[rev_indptr[v], in_end[v])``.  The rest is spare room.

An inserted edge ``(u, v)`` writes one forward slot at ``out_end[u]``
and one reverse slot at ``in_end[v]`` (holding the forward slot id) in
O(1); within a vertex, the edges it had when the snapshot was built
come first and appended edges follow in record order.  When a batch
needs more slots at some endpoint than its region has spare, the whole
layout is *relaid* once, before the batch's records apply: every
vertex keeps its live order, tombstones are dropped, and each region
gets :attr:`CSRGraph.SLACK` spare slots plus room for the batch.  A
relayout costs O(n + |E|); a run of random insertions relays only
when some vertex has drawn more than ``SLACK`` of them.

Every reader — the Step-1/Step-2 kernels, the frontier gather, the
MOSP reassignment, the per-vertex queries — slices live ranges only.
The static solvers read ``indptr``/``indices``/``weights``/``src`` as
dense rows; they go through :meth:`CSRGraph.ensure`, which
:meth:`compact` s the snapshot in place into a slack-free layout (no
spare slots, no tombstones) where every region is its live range.
Outside live ranges, forward slots hold ``inf`` weights and reverse
slots an ``edge_perm`` of ``-1``; nothing reads them.

Mixed batches in one pass (the fully dynamic story)
---------------------------------------------------
:meth:`CSRGraph.apply_batch` applies a mixed batch of insertions,
deletions and weight changes in record order, in O(|batch| + degree).
A deleted edge is *tombstoned* in place: its weight row becomes
``+inf``, which no shortest-path relaxation can ever improve through.
A weight change overwrites its target row.  Both target the live
``(u, v)`` slot in ``u``'s live forward range with the
lexicographically smallest weight vector, first in slot order on ties,
mirroring :meth:`DiGraph.remove_edge`, so an incrementally maintained
snapshot stays edge-multiset-equal to its digraph.  All of a batch's
insertions are written first; a deletion or weight change sees only
the slots of insertions recorded before it.

Inserting an edge moves :attr:`CSRGraph.topology_stamp` and
:attr:`CSRGraph.weights_stamp`; a deletion or weight change moves only
the latter; a relayout or :meth:`compact` moves both.  Shared-memory
engines key their planted copies on these stamps, so a dispatched
superstep never reads a stale array.  Until the next relayout,
``num_edges`` discounts tombstones, structural queries
(``out_neighbors``/``in_neighbors``/degrees) may still report the dead
endpoints, and weight queries return their ``inf`` rows — harmless to
the relaxation kernels, which only ever take minima.
"""

from __future__ import annotations

import itertools
from typing import (
    TYPE_CHECKING,
    Iterator,
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
    """CSR snapshot with forward and reverse per-vertex slot regions.

    Attributes
    ----------
    n, m, k:
        Vertex count, forward slot count (live, tombstoned and spare),
        number of objectives.  ``num_edges`` counts the live edges.
    indptr, out_end:
        Forward regions and live ends: the out-edges of ``u`` sit in
        slots ``indptr[u]:out_end[u]``, and ``out_end[u]:indptr[u+1]``
        is spare.
    indices, weights:
        Head vertex and ``(m, k)`` float64 weight vector of each
        forward slot.
    src:
        ``(m,)`` owner (tail vertex) of each forward slot.
    rev_indptr, in_end, rev_indices:
        Reverse regions: the in-neighbours of ``v`` are
        ``rev_indices[rev_indptr[v]:in_end[v]]``.
    edge_perm:
        Reverse slot → forward slot, i.e. the weight of reverse slot
        ``j`` is ``weights[edge_perm[j]]``.
    """

    #: Spare slots every vertex gets per direction when the layout is
    #: relaid out.
    SLACK = 4

    #: Process-wide snapshot identity source (see :attr:`uid`).
    _UID_SOURCE = itertools.count(1)

    __slots__ = (
        "n",
        "m",
        "k",
        "indptr",
        "out_end",
        "indices",
        "weights",
        "src",
        "rev_indptr",
        "in_end",
        "rev_indices",
        "edge_perm",
        "uid",
        "topology_version",
        "weights_version",
        "num_dead",
        "num_tail_edges",
        "_used",
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
        #: to skip re-copying unchanged arrays (see :attr:`stamp`).
        self.uid = next(self._UID_SOURCE)
        self.topology_version = 0
        self.weights_version = 0
        self._freeze(src, dst, weights)

    def __getstate__(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled/copied snapshot under a **fresh** uid.

        ``uid`` is process-local identity: a duplicate (pickle round
        trip, ``copy.deepcopy``) that kept the original's uid would
        present the same ``(uid, version)`` fingerprints while its
        array contents can diverge independently, so a shared-memory
        engine would skip re-planting and run kernels on stale data.
        Reassigning here keeps every stamp unique per live snapshot
        object.
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
        """Lay COO edges out slack-free: forward slots stable-sorted by
        source, reverse slots stable-sorted by destination."""
        n = self.n
        self.m = int(src.shape[0])
        order = np.argsort(src, kind="stable")
        self.src = src[order]
        self.indices = dst[order]
        self.weights = weights[order]
        self.indptr = _region_ptr(np.bincount(self.src, minlength=n))
        rev_order = np.argsort(self.indices, kind="stable")
        self.edge_perm = rev_order.astype(VERTEX_DTYPE)
        self.rev_indices = self.src[rev_order]
        self.rev_indptr = _region_ptr(np.bincount(self.indices, minlength=n))
        self.out_end = self.indptr[1:].copy()
        self.in_end = self.rev_indptr[1:].copy()
        self._reset_counts(self.m)

    def _reset_counts(self, used: int) -> None:
        """Bookkeeping after a fresh layout of ``used`` live slots."""
        self._used = used
        #: Tombstoned (deleted-in-place) slots in live ranges; see
        #: :meth:`apply_batch`.  Discounted from :attr:`num_edges` and
        #: dropped by the next relayout.
        self.num_dead = 0
        #: Edges appended since the last relayout or freeze.
        self.num_tail_edges = 0
        self.topology_version += 1
        self.weights_version += 1

    def _relayout(
        self,
        need_out: Union[IntArray, int] = 0,
        need_in: Union[IntArray, int] = 0,
    ) -> None:
        """Relay every region out: live slots keep their order within
        their vertex, tombstones are dropped, and each region gets
        :attr:`SLACK` spare slots plus ``need_out``/``need_in`` (per
        vertex) more."""
        n, k = self.n, self.k
        keep = self._live_slots()
        owner = self.src[keep]
        cnt = np.bincount(owner, minlength=n)
        ptr = _region_ptr(cnt + self.SLACK + need_out)
        slot = _packed(ptr, cnt, owner)
        moved = np.full(self.m, -1, dtype=VERTEX_DTYPE)
        moved[keep] = slot
        rkeep, _ = gather_ranges(self.rev_indptr[:-1], self.in_end)
        fwd = moved[self.edge_perm[rkeep]]
        alive = fwd >= 0
        rkeep, fwd = rkeep[alive], fwd[alive]
        del owner, moved, alive
        # the new forward arrays replace the old ones before the reverse
        # ones are built, which keeps the peak footprint down
        self.src = np.repeat(np.arange(n, dtype=VERTEX_DTYPE), np.diff(ptr))
        indices = self.src.copy()
        indices[slot] = self.indices[keep]
        self.indices = indices
        weights = np.full((int(ptr[-1]), k), np.inf, dtype=DIST_DTYPE)
        weights[slot] = self.weights[keep]
        self.weights = weights
        self.m = int(ptr[-1])
        self.indptr, self.out_end = ptr, ptr[:-1] + cnt
        del slot

        rowner = indices[fwd]
        rcnt = np.bincount(rowner, minlength=n)
        rptr = _region_ptr(rcnt + self.SLACK + need_in)
        rslot = _packed(rptr, rcnt, rowner)
        rev_indices = np.repeat(np.arange(n, dtype=VERTEX_DTYPE), np.diff(rptr))
        rev_indices[rslot] = self.rev_indices[rkeep]
        self.rev_indices = rev_indices
        edge_perm = np.full(int(rptr[-1]), -1, dtype=VERTEX_DTYPE)
        edge_perm[rslot] = fwd
        self.edge_perm = edge_perm
        self.rev_indptr, self.in_end = rptr, rptr[:-1] + rcnt
        self._reset_counts(int(keep.size))

    def _live_slots(self) -> IntArray:
        """Forward slots of the live edges (tombstones skipped), in
        slot order: by source, then in each vertex's live order."""
        idx, _ = gather_ranges(self.indptr[:-1], self.out_end)
        return idx[np.isfinite(self.weights[idx, 0])]

    # ------------------------------------------------------------------
    @classmethod
    def from_digraph(cls, g: DiGraph) -> "CSRGraph":
        """Snapshot a :class:`DiGraph` (live edges only)."""
        src, dst, w = g.edge_arrays()
        return cls(g.num_vertices, src, dst, w)

    @classmethod
    def ensure(cls, graph: Union[DiGraph, "CSRGraph"]) -> "CSRGraph":
        """Coerce to a **compact** snapshot.

        A :class:`DiGraph` is frozen; a :class:`CSRGraph` is compacted
        in place (no-op when already compact).  This is the entry point
        the static SSSP solvers use, so a maintained snapshot is always
        safe to hand to them: they read every slot as an edge.
        """
        if isinstance(graph, cls):
            graph.compact()
            return graph
        return cls.from_digraph(graph)

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Live edge count: slots in live ranges minus tombstones."""
        return self._used - self.num_dead

    @property
    def is_compact(self) -> bool:
        """Whether the layout is what :meth:`compact` leaves: every
        slot holds a live edge, and nothing was appended since it was
        laid out."""
        return (self._used == self.m and self.num_dead == 0
                and self.num_tail_edges == 0)

    @property
    def topology_stamp(self) -> Tuple[int, int]:
        """Fingerprint of ``indptr``/``out_end``/``indices``/``src``
        and their reverse twins ``rev_indptr``/``in_end``/
        ``rev_indices``/``edge_perm``: moves on every insertion,
        relayout and :meth:`compact`."""
        return (self.uid, self.topology_version)

    @property
    def weights_stamp(self) -> Tuple[int, int]:
        """Fingerprint of ``weights``: moves on every insertion,
        deletion and weight change that wrote a slot, and on every
        relayout and :meth:`compact`."""
        return (self.uid, self.weights_version)

    @property
    def stamp(self) -> Tuple[int, int, int]:
        """Fingerprint of the whole snapshot: moves whenever any slot
        is written."""
        return (self.uid, self.topology_version, self.weights_version)

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

    def _matches(
        self, src: IntArray, dst: IntArray, ends: IntArray
    ) -> Tuple[IntArray, IntArray]:
        """Every forward slot of every pair ``(src[i], dst[i])`` in
        ``[indptr[src[i]], ends[i])``: returns ``(owner, slots)`` with
        ``owner`` the pair's position ``i``, in ``(i, slot)`` order."""
        lo = self.indptr[src]
        slots, _ = gather_ranges(lo, ends)
        owner = np.repeat(np.arange(len(src), dtype=np.int64), ends - lo)
        hit = self.indices[slots] == dst[owner]
        return owner[hit], slots[hit]

    def _lexmin_live(self, slots: Sequence[int]) -> int:
        """The target of a deletion or weight change: among one pair's
        candidate slots, the live one with the lexicographically
        smallest weight vector, the first in slot order on ties; ``-1``
        when no candidate is live."""
        best, best_w = -1, []
        for slot in slots:
            w = self.weights[slot].tolist()
            if w[0] != np.inf and (best < 0 or w < best_w):
                best, best_w = slot, w
        return best

    def apply_batch(self, batch: "ChangeBatch") -> None:
        """Apply a mixed :class:`~repro.dynamic.changes.ChangeBatch` in
        record order, the CSR twin of
        :meth:`~repro.dynamic.changes.ChangeBatch.apply_to`.

        One pass, O(|batch| + degree): every record is checked first
        (:meth:`_check_records`), so a bad record leaves the snapshot
        untouched; the layout is relaid at most once, before anything
        is written, when some endpoint lacks the spare slots the
        batch's insertions need; the insertions then fill spare slots
        in record order; deletions tombstone and weight changes
        overwrite the :meth:`_lexmin_live` slot among those of their
        pair that precede them in record order.  After
        ``batch.apply_to(graph)`` + ``snapshot.apply_batch(batch)`` the
        snapshot's live edge multiset equals the digraph's.
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
        mut = np.flatnonzero(~ins)
        isrc, idst = src[ins], dst[ins]
        # earlier[i]: insertions before record i out of the same source;
        # an insertion's slots sit that far past its endpoints' live ends
        earlier = _earlier_equal(src, ins)
        rank_out = earlier[ins]
        rank_in = _earlier_equal(idst, np.ones(idst.size, dtype=bool))
        if ((self.out_end[isrc] + rank_out >= self.indptr[isrc + 1]).any()
                or (self.in_end[idst] + rank_in
                    >= self.rev_indptr[idst + 1]).any()):
            self._relayout(np.bincount(isrc, minlength=self.n),
                           np.bincount(idst, minlength=self.n))
        # a deletion or weight change sees its source's live slots from
        # before the batch plus the insertions recorded before it
        msrc = src[mut]
        ends = self.out_end[msrc] + earlier[mut]
        if isrc.size:
            slots = self.out_end[isrc] + rank_out
            self.indices[slots] = idst
            self.weights[slots] = weights[ins]
            rslots = self.in_end[idst] + rank_in
            self.rev_indices[rslots] = isrc
            self.edge_perm[rslots] = slots
            np.add.at(self.out_end, isrc, 1)
            np.add.at(self.in_end, idst, 1)
            self._used += int(isrc.size)
            self.num_tail_edges += int(isrc.size)
            self.topology_version += 1
            self.weights_version += 1
        if not mut.size:
            return
        owner, slots = self._matches(msrc, dst[mut], ends)
        bounds = np.searchsorted(owner, np.arange(mut.size + 1)).tolist()
        cand = slots.tolist()
        wrote = False
        for j, (i, code) in enumerate(zip(mut.tolist(), kind[mut].tolist())):
            slot = self._lexmin_live(cand[bounds[j]:bounds[j + 1]])
            if slot < 0:
                continue
            if code == KIND_DELETE:
                self.weights[slot] = np.inf
                self.num_dead += 1
            else:
                self.weights[slot] = weights[i]
            wrote = True
        if wrote:
            self.weights_version += 1

    def min_weight_between(
        self, src: IntArray, dst: IntArray, objective: int = 0
    ) -> FloatArray:
        """Smallest ``objective`` weight over the live edges of each
        pair ``(src[i], dst[i])``; ``inf`` where none is live.

        The vectorised twin of :meth:`DiGraph.min_weight_between`
        (bitwise equal on a synced snapshot): one gather over the live
        forward ranges of the sources.  Tombstones weigh ``inf`` and
        never win the minimum.
        """
        src = np.asarray(src, dtype=VERTEX_DTYPE)
        dst = np.asarray(dst, dtype=VERTEX_DTYPE)
        out = np.full(src.shape[0], np.inf, dtype=DIST_DTYPE)
        owner, slots = self._matches(src, dst, self.out_end[src])
        np.minimum.at(out, owner, self.weights[slots, objective])
        return out

    def compact(self) -> None:
        """Lay the live edges out slack-free, dropping tombstones and
        spare slots (no-op when already compact).  Forward slots keep
        their order; reverse slots come out sorted by source, as in a
        fresh freeze of the same edge list."""
        if self.is_compact:
            return
        keep = self._live_slots()
        self._freeze(self.src[keep], self.indices[keep], self.weights[keep])

    # ------------------------------------------------------------------
    def out_neighbors(self, u: int) -> IntArray:
        """Array of out-neighbour ids of ``u`` (may contain repeats)."""
        return self.indices[self.indptr[u]:self.out_end[u]]

    def out_weights(self, u: int, objective: int = 0) -> FloatArray:
        """Weights (one objective) of ``u``'s out-edges, aligned with
        :meth:`out_neighbors`."""
        return self.weights[self.indptr[u]:self.out_end[u], objective]

    def in_neighbors(self, v: int) -> IntArray:
        """Array of predecessor ids of ``v``."""
        return self.rev_indices[self.rev_indptr[v]:self.in_end[v]]

    def in_weights(self, v: int, objective: int = 0) -> FloatArray:
        """Weights (one objective) of ``v``'s in-edges, aligned with
        :meth:`in_neighbors`."""
        return self.in_weight_vectors(v)[:, objective]

    def in_weight_vectors(self, v: int) -> FloatArray:
        """``(indeg, k)`` weight vectors of ``v``'s in-edges."""
        return self.weights[self.edge_perm[self.rev_indptr[v]:self.in_end[v]]]

    def out_degree(self, u: int) -> int:
        """Out-degree of ``u``."""
        return int(self.out_end[u] - self.indptr[u])

    def in_degree(self, v: int) -> int:
        """In-degree of ``v``."""
        return int(self.in_end[v] - self.rev_indptr[v])

    def edges(self) -> Iterator[Tuple[int, int, FloatArray]]:
        """Yield ``(u, v, weight_vector)`` over all **live** edges, in
        forward slot order; tombstoned slots are skipped."""
        for slot in self._live_slots().tolist():
            yield int(self.src[slot]), int(self.indices[slot]), self.weights[slot]

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
        return (f"CSRGraph(n={self.n}, edges={self.num_edges}, "
                f"slots={self.m}, k={self.k}{tail}{dead})")


def _region_ptr(sizes: IntArray) -> IntArray:
    """Region bounds ``(n+1,)`` of consecutive regions of ``sizes``."""
    ptr = np.zeros(len(sizes) + 1, dtype=VERTEX_DTYPE)
    np.cumsum(sizes, out=ptr[1:])
    return ptr


def _packed(ptr: IntArray, cnt: IntArray, owner: IntArray) -> IntArray:
    """New slots of rows grouped by ``owner`` (sorted, ``cnt[v]`` rows
    of ``v``): each group packed, in order, from its region start."""
    first = np.cumsum(cnt) - cnt
    return ptr[:-1][owner] + np.arange(owner.size) - first[owner]


def _earlier_equal(keys: IntArray, flags: IntArray) -> IntArray:
    """For each position ``i``: how many earlier positions carry the
    same key and a set flag."""
    order = np.argsort(keys, kind="stable")
    f = flags[order].astype(np.int64)
    before = np.cumsum(f) - f  # flagged positions before, across groups
    s = keys[order]
    start = np.flatnonzero(np.r_[True, s[1:] != s[:-1]]) if s.size else s
    group = np.repeat(start, np.diff(np.r_[start, s.size]))
    out = np.empty(keys.shape[0], dtype=np.int64)
    out[order] = before - before[group]
    return out


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
