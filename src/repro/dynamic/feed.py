"""Record-level change feeds: the streaming-ingest view of ``ΔE``.

:class:`~repro.dynamic.changes.ChangeBatch` is the unit the update
algorithms consume, but a live network does not deliver batches — it
delivers individual edge events that *become* batches only once a
coalescing policy (group commit, see :mod:`repro.service.coalesce`)
cuts the stream.  This module provides
the record-level vocabulary between the two:

- :class:`EdgeEdit` — one edge event (insert / delete / re-weight),
- :func:`edits_of` — decompose a batch into its record-order edits,
- :func:`batch_of` — recompose edits into a batch, preserving arrival
  order (record order matters: a delete may target an edge inserted
  earlier in the same batch).

Round-tripping is exact: ``batch_of(edits_of(b), k=b.num_objectives)``
reproduces ``b`` record for record.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.dynamic.changes import (
    KIND_DELETE,
    KIND_INSERT,
    KIND_WEIGHT,
    ChangeBatch,
)
from repro.dynamic.stream import ChangeStream
from repro.errors import BatchError
from repro.types import DIST_DTYPE, VERTEX_DTYPE

__all__ = ["EdgeEdit", "edits_of", "batch_of", "stream_edits"]


class EdgeEdit(NamedTuple):
    """One edge event: a single record of a :class:`ChangeBatch`.

    ``weights`` is a ``k``-tuple for insert/re-weight records and
    ``None`` for deletions (whose weights the batch machinery ignores).
    """

    kind: int
    u: int
    v: int
    weights: Optional[Tuple[float, ...]] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = {KIND_DELETE: "del", KIND_INSERT: "ins", KIND_WEIGHT: "chg"}
        w = "" if self.weights is None else f", w={list(self.weights)}"
        kind = tag.get(self.kind, f"kind={self.kind!r}")
        return f"EdgeEdit({kind} {self.u}->{self.v}{w})"


def edits_of(batch: ChangeBatch) -> Iterator[EdgeEdit]:
    """Yield the batch's records as :class:`EdgeEdit`\\ s, in order."""
    for i in range(batch.num_changes):
        kind = int(batch.kind[i])
        yield EdgeEdit(
            kind,
            int(batch.src[i]),
            int(batch.dst[i]),
            None if kind == KIND_DELETE
            else tuple(float(w) for w in batch.weights[i]),
        )


def batch_of(edits: Iterable[EdgeEdit], k: int = 1) -> ChangeBatch:
    """Recompose ``edits`` into one batch, preserving arrival order.

    ``k`` sets the weight arity for an all-deletion (or empty) input;
    weight-bearing edits must agree with it.
    """
    rows: List[EdgeEdit] = list(edits)
    b = len(rows)
    src = np.empty(b, VERTEX_DTYPE)
    dst = np.empty(b, VERTEX_DTYPE)
    kinds = np.empty(b, np.int8)
    weights = np.zeros((b, k), DIST_DTYPE)
    for i, e in enumerate(rows):
        src[i], dst[i], kinds[i] = e.u, e.v, e.kind
        if e.kind != KIND_DELETE:
            if e.weights is None:
                raise BatchError(
                    f"edit {i} ({e!r}) carries no weights but is not a "
                    f"deletion"
                )
            if len(e.weights) != k:
                raise BatchError(
                    f"edit {i} has weight arity {len(e.weights)}, "
                    f"expected k={k}"
                )
            weights[i] = e.weights
    return ChangeBatch(src, dst, weights, kinds)


def stream_edits(stream: ChangeStream) -> Iterator[EdgeEdit]:
    """Flatten a :class:`ChangeStream` into individual edits.

    Batches are generated (and applied to the stream's graph, matching
    the :meth:`~repro.dynamic.stream.ChangeStream.play` contract that
    generation sees the evolving topology) one step at a time; their
    records are then yielded individually — the synthetic stand-in for
    a live event feed driving the update service's ingest queue.
    """
    for _ in range(stream.steps):
        batch = stream._make_batch()
        batch.apply_to(stream.graph)
        yield from edits_of(batch)
