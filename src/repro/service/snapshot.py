"""Epoch-stamped immutable read snapshots of the SOSP tree (MVCC).

A snapshot is the unit readers hold: frozen (``writeable=False``)
copies of ``dist``/``parent`` plus the epoch number and the CSR stamp
of the graph state they were computed against.  The writer publishes a
new snapshot after every applied batch by swapping one attribute — an
atomic reference store — so a reader either sees the old epoch in full
or the new epoch in full, never a mix.

Each snapshot carries a BLAKE2b digest of its payload taken at publish
time; :meth:`EpochSnapshot.verify` recomputes it, which is how the
load generator (and the property tests) prove the absence of torn
reads rather than assert it.
"""

from __future__ import annotations

import hashlib
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.types import FloatArray, IntArray

__all__ = ["EpochSnapshot", "freeze", "payload_digest"]


def freeze(array: np.ndarray) -> np.ndarray:
    """An owning, read-only copy of ``array``."""
    out = np.array(array, copy=True)
    out.setflags(write=False)
    return out


def payload_digest(dist: FloatArray, parent: IntArray) -> str:
    """BLAKE2b hex digest over the snapshot payload bytes."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(dist).tobytes())
    h.update(np.ascontiguousarray(parent).tobytes())
    return h.hexdigest()


class EpochSnapshot:
    """One immutable epoch of the served shortest-path state.

    Parameters
    ----------
    epoch:
        Monotonically increasing publication counter (0 = the initial
        tree, before any batch).
    source:
        Source vertex of the tree.
    dist, parent:
        The tree arrays.  Copied and frozen unless they are already
        read-only (the shared-memory engine's
        ``publish_snapshot`` hands back pre-frozen arrays — no second
        copy).
    stamp:
        The CSR :attr:`~repro.graph.csr.CSRGraph.stamp` (or any state fingerprint) of the graph
        version this epoch reflects; ``None`` when there is none.
    """

    __slots__ = ("epoch", "source", "dist", "parent", "stamp", "digest")

    def __init__(
        self,
        epoch: int,
        source: int,
        dist: FloatArray,
        parent: IntArray,
        stamp: Optional[Tuple[Any, ...]] = None,
    ) -> None:
        self.epoch = int(epoch)
        self.source = int(source)
        self.dist = dist if not dist.flags.writeable else freeze(dist)
        self.parent = (
            parent if not parent.flags.writeable else freeze(parent)
        )
        self.stamp = stamp
        self.digest = payload_digest(self.dist, self.parent)

    # ------------------------------------------------------------- reads
    @property
    def num_vertices(self) -> int:
        return int(self.dist.shape[0])

    def distance(self, v: int) -> float:
        """The served distance to ``v`` in this epoch."""
        return float(self.dist[v])

    def path_to(self, v: int) -> List[int]:
        """Parent-chain path ``source -> v`` in this epoch.

        Raises :class:`ReproError` when ``v`` is unreachable in this
        epoch, and — defensively — when the parent chain does not
        terminate (a torn snapshot could cycle; an intact one cannot).
        """
        if not np.isfinite(self.dist[v]):
            raise ReproError(
                f"vertex {v} is unreachable in epoch {self.epoch}"
            )
        path = [int(v)]
        seen = 0
        while path[-1] != self.source:
            nxt = int(self.parent[path[-1]])
            if nxt < 0 or seen > self.num_vertices:
                raise ReproError(
                    f"broken parent chain at vertex {path[-1]} "
                    f"(epoch {self.epoch})"
                )
            path.append(nxt)
            seen += 1
        path.reverse()
        return path

    def verify(self) -> bool:
        """Recompute the payload digest; ``True`` iff untorn."""
        return payload_digest(self.dist, self.parent) == self.digest

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EpochSnapshot(epoch={self.epoch}, n={self.num_vertices}, "
            f"digest={self.digest[:8]}…)"
        )
