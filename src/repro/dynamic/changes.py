"""Change batches: the ``ΔE`` of the paper.

The paper stores changed edges as an array of structures, each holding
"the endpoints of an edge, edge weight, and a flag to indicate
insertion/deletion status" (§4).  :class:`ChangeBatch` is the
structure-of-arrays equivalent: ``src``/``dst`` int64 arrays, a
``(b, k)`` weight matrix, and a per-record ``kind`` code.

Three record kinds exist (the fully dynamic model of SSSP-Del):

- ``KIND_INSERT`` — add a new edge with the record's weight vector,
- ``KIND_DELETE`` — remove one live matching edge (weights ignored),
- ``KIND_WEIGHT`` — overwrite the weight vector of one live matching
  edge (a *raise* behaves like a deletion for the update algorithms, a
  *drop* like an insertion).

The historical boolean ``insert_mask`` view survives as a property, so
insert/delete-only callers are unaffected.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import BatchError
from repro.graph.digraph import DiGraph
from repro.types import (
    DIST_DTYPE,
    KIND_DELETE,
    KIND_INSERT,
    KIND_WEIGHT,
    VERTEX_DTYPE,
    FloatArray,
    IntArray,
)

__all__ = ["ChangeBatch", "KIND_DELETE", "KIND_INSERT", "KIND_WEIGHT"]


class ChangeBatch:
    """A batch of edge changes applied between two time steps.

    Parameters
    ----------
    src, dst:
        Edge endpoints, int64 arrays of equal length ``b``.
    weights:
        ``(b, k)`` weight vectors (ignored for deletion records, kept
        zero by the constructors).
    kinds:
        Per-record kind: a boolean array (``True`` = insertion,
        ``False`` = deletion — the historical ``insert_mask`` form) or
        an integer array of :data:`KIND_DELETE` / :data:`KIND_INSERT` /
        :data:`KIND_WEIGHT` codes.

    Examples
    --------
    >>> batch = ChangeBatch.insertions([(0, 1, (2.0,)), (1, 2, (3.0,))])
    >>> batch.num_changes, batch.num_insertions, batch.num_deletions
    (2, 2, 0)
    """

    __slots__ = ("src", "dst", "weights", "kind")

    def __init__(
        self,
        src: IntArray,
        dst: IntArray,
        weights: FloatArray,
        kinds,
    ) -> None:
        self.src = np.ascontiguousarray(src, dtype=VERTEX_DTYPE)
        self.dst = np.ascontiguousarray(dst, dtype=VERTEX_DTYPE)
        self.weights = np.ascontiguousarray(weights, dtype=DIST_DTYPE)
        if self.weights.ndim == 1:
            self.weights = self.weights.reshape(-1, 1)
        kinds = np.asarray(kinds)
        if kinds.dtype == bool:
            kinds = np.where(kinds, KIND_INSERT, KIND_DELETE)
        self.kind = np.ascontiguousarray(kinds, dtype=np.int8)
        b = self.src.shape[0]
        if (
            self.dst.shape[0] != b
            or self.weights.shape[0] != b
            or self.kind.shape[0] != b
        ):
            raise BatchError(
                f"batch arrays disagree on length: src={b}, "
                f"dst={self.dst.shape[0]}, weights={self.weights.shape[0]}, "
                f"kinds={self.kind.shape[0]}"
            )
        if b:
            if not np.isin(self.kind, (KIND_DELETE, KIND_INSERT,
                                       KIND_WEIGHT)).all():
                raise BatchError(
                    f"unknown record kinds "
                    f"{sorted(set(self.kind.tolist()))}; expected "
                    f"{{{KIND_DELETE}, {KIND_INSERT}, {KIND_WEIGHT}}}"
                )
            if self.src.min() < 0 or self.dst.min() < 0:
                raise BatchError("negative vertex ids in batch")
            # insertion AND weight-change records carry meaningful
            # weights; both must be valid edge weights
            ww = self.weights[self.kind != KIND_DELETE]
            if ww.size and (
                not np.all(np.isfinite(ww)) or np.any(ww < 0)
            ):
                raise BatchError(
                    "insertion/weight-change weights must be finite and >= 0"
                )

    # ------------------------------------------------------------------
    @classmethod
    def insertions(
        cls, edges: Iterable[Tuple[int, int, Sequence[float]]]
    ) -> "ChangeBatch":
        """Build an insertion-only batch from ``(u, v, weight_vector)``
        tuples (scalar weights accepted for ``k=1``)."""
        src, dst, ws = cls._weighted_rows(edges)
        return cls(src, dst, ws, np.full(len(src), KIND_INSERT, np.int8))

    @classmethod
    def deletions(cls, pairs: Iterable[Tuple[int, int]], k: int = 1) -> "ChangeBatch":
        """Build a deletion-only batch from ``(u, v)`` pairs."""
        rows = list(pairs)
        b = len(rows)
        return cls(
            [r[0] for r in rows] if rows else np.empty(0, VERTEX_DTYPE),
            [r[1] for r in rows] if rows else np.empty(0, VERTEX_DTYPE),
            np.zeros((b, k), DIST_DTYPE),
            np.full(b, KIND_DELETE, np.int8),
        )

    @classmethod
    def weight_changes(
        cls, edges: Iterable[Tuple[int, int, Sequence[float]]]
    ) -> "ChangeBatch":
        """Build a weight-change batch from ``(u, v, new_weight_vector)``
        tuples: each record overwrites the weight of one live ``(u, v)``
        edge (no-op when none is live)."""
        src, dst, ws = cls._weighted_rows(edges)
        return cls(src, dst, ws, np.full(len(src), KIND_WEIGHT, np.int8))

    @staticmethod
    def _weighted_rows(
        edges: Iterable[Tuple[int, int, Sequence[float]]]
    ) -> Tuple[IntArray, IntArray, FloatArray]:
        rows = list(edges)
        if not rows:
            return (
                np.empty(0, VERTEX_DTYPE),
                np.empty(0, VERTEX_DTYPE),
                np.empty((0, 1), DIST_DTYPE),
            )
        src = np.asarray([r[0] for r in rows], dtype=VERTEX_DTYPE)
        dst = np.asarray([r[1] for r in rows], dtype=VERTEX_DTYPE)
        ws = [
            [float(r[2])] if np.isscalar(r[2]) else list(r[2]) for r in rows
        ]
        arity = {len(w) for w in ws}
        if len(arity) != 1:
            raise BatchError(f"inconsistent weight arity in batch: {arity}")
        return src, dst, np.asarray(ws, dtype=DIST_DTYPE)

    @classmethod
    def concat(cls, *batches: "ChangeBatch") -> "ChangeBatch":
        """Concatenate several batches in record order.

        Batches whose records all ignore their weights (deletion-only
        batches) are *k-agnostic*: their zero weight matrix is padded or
        truncated to the arity of the weight-bearing batches, so
        ``concat(insertions_k2, deletions)`` works without threading
        ``k`` through every deletion constructor.  Weight-bearing
        batches must still agree on ``k``.
        """
        if not batches:
            raise BatchError("concat needs at least one batch")
        weighted_ks = {
            b.num_objectives for b in batches
            if bool((b.kind != KIND_DELETE).any())
        }
        if len(weighted_ks) > 1:
            raise BatchError(
                f"cannot concat batches with k in {sorted(weighted_ks)}"
            )
        k = (
            next(iter(weighted_ks)) if weighted_ks
            else max(b.num_objectives for b in batches)
        )

        def to_k(b: "ChangeBatch") -> FloatArray:
            if b.num_objectives == k:
                return b.weights
            # only reachable for deletion-only batches (weights unused)
            return np.zeros((b.num_changes, k), DIST_DTYPE)

        return cls(
            np.concatenate([b.src for b in batches]),
            np.concatenate([b.dst for b in batches]),
            np.vstack([to_k(b) for b in batches]),
            np.concatenate([b.kind for b in batches]),
        )

    # ------------------------------------------------------------------
    @property
    def insert_mask(self) -> np.ndarray:
        """Boolean view: ``True`` exactly for insertion records.

        Kept for compatibility with insert/delete-only callers; note
        that ``~insert_mask`` covers deletions *and* weight changes —
        kind-aware code should read :attr:`kind` instead.
        """
        result: np.ndarray = self.kind == KIND_INSERT
        return result

    @property
    def num_changes(self) -> int:
        """Total number of change records ``|ΔE|``."""
        return int(self.src.shape[0])

    @property
    def num_insertions(self) -> int:
        """Number of insertion records ``|Ins|``."""
        return int((self.kind == KIND_INSERT).sum())

    @property
    def num_deletions(self) -> int:
        """Number of deletion records ``|Del|``."""
        return int((self.kind == KIND_DELETE).sum())

    @property
    def num_weight_changes(self) -> int:
        """Number of weight-change records."""
        return int((self.kind == KIND_WEIGHT).sum())

    @property
    def num_objectives(self) -> int:
        """Weight-vector arity ``k``."""
        return int(self.weights.shape[1])

    def __len__(self) -> int:
        return self.num_changes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        wc = self.num_weight_changes
        extra = f", wchg={wc}" if wc else ""
        return (
            f"ChangeBatch(ins={self.num_insertions}, "
            f"del={self.num_deletions}{extra}, k={self.num_objectives})"
        )

    # ------------------------------------------------------------------
    def insert_records(self) -> Tuple[IntArray, IntArray, FloatArray]:
        """``(src, dst, weights)`` restricted to insertion records."""
        m = self.kind == KIND_INSERT
        return self.src[m], self.dst[m], self.weights[m]

    def delete_records(self) -> Tuple[IntArray, IntArray]:
        """``(src, dst)`` restricted to deletion records."""
        m = self.kind == KIND_DELETE
        return self.src[m], self.dst[m]

    def weight_change_records(self) -> Tuple[IntArray, IntArray, FloatArray]:
        """``(src, dst, new_weights)`` restricted to weight changes."""
        m = self.kind == KIND_WEIGHT
        return self.src[m], self.dst[m], self.weights[m]

    def _only(self, code: int) -> "ChangeBatch":
        m = self.kind == code
        return ChangeBatch(self.src[m], self.dst[m], self.weights[m],
                           self.kind[m])

    def only_insertions(self) -> "ChangeBatch":
        """The insertion-only sub-batch."""
        return self._only(KIND_INSERT)

    def only_deletions(self) -> "ChangeBatch":
        """The deletion-only sub-batch (weight changes excluded)."""
        return self._only(KIND_DELETE)

    def only_weight_changes(self) -> "ChangeBatch":
        """The weight-change-only sub-batch."""
        return self._only(KIND_WEIGHT)

    # ------------------------------------------------------------------
    def apply_to(self, g: DiGraph) -> List[int]:
        """Apply the batch to ``g`` in record order; return the edge ids
        of the inserted edges.

        Deletion and weight-change records target the live matching
        edge with the lexicographically smallest weight vector — the
        same edge :meth:`~repro.graph.digraph.DiGraph.remove_edge`
        picks — and are skipped with no effect when no live edge
        matches (idempotent semantics for randomly generated batches).
        Record order matters: a deletion can remove an edge inserted
        earlier in the same batch, and consecutive weight changes on
        one ``(u, v)`` pair re-resolve their target edge after each
        change.  Every record is validated before the first mutation,
        so a bad record leaves ``g`` untouched
        (:meth:`~repro.graph.digraph.DiGraph.apply_batch`).
        """
        return g.apply_batch(self)
