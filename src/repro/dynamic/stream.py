"""Multi-timestep change streams: the evolving network ``G_t``.

A :class:`ChangeStream` lazily yields one :class:`ChangeBatch` per
time step, letting examples and benchmarks drive the update algorithms
through many consecutive topology changes — the "rapidly growing large
networks" setting of the paper's §3.2.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

import numpy as np

from repro.errors import BatchError
from repro.dynamic.batch_gen import random_insert_batch, random_mixed_batch
from repro.dynamic.changes import ChangeBatch
from repro.graph.digraph import DiGraph

__all__ = ["ChangeStream"]


class ChangeStream:
    """A seeded sequence of change batches over a (mutating) graph.

    Parameters
    ----------
    graph:
        The graph the stream evolves.  Each yielded batch has *already
        been applied* to it by :meth:`play` (the common consumption
        pattern); :meth:`batches` yields without applying for callers
        that manage application themselves.
    batch_size:
        Records per time step.
    steps:
        Number of time steps.
    insert_fraction:
        1.0 = incremental-only (the paper's main setting); < 1.0 mixes
        deletions in (the future-work extension).
    weight_change_fraction:
        Fraction of each batch that re-weights live edges (0.0 by
        default; requires ``insert_fraction + weight_change_fraction
        <= 1``).  Together with ``insert_fraction < 1`` this makes
        mixed batches.
    seed:
        RNG seed; the stream is fully deterministic.

    Examples
    --------
    >>> from repro.graph import grid_road
    >>> g = grid_road(4, 4, seed=0)
    >>> stream = ChangeStream(g, batch_size=5, steps=3, seed=1)
    >>> sum(b.num_changes for b in stream.batches())
    15
    """

    def __init__(
        self,
        graph: DiGraph,
        batch_size: int,
        steps: int,
        insert_fraction: float = 1.0,
        seed=0,
        low: float = 1.0,
        high: float = 10.0,
        weight_change_fraction: float = 0.0,
    ) -> None:
        if steps < 0:
            raise BatchError("steps must be >= 0")
        if batch_size < 0:
            raise BatchError("batch_size must be >= 0")
        self.graph = graph
        self.batch_size = batch_size
        self.steps = steps
        self.insert_fraction = insert_fraction
        self.weight_change_fraction = weight_change_fraction
        self.low = low
        self.high = high
        self._rng = (
            seed if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        self._pending: Optional[ChangeBatch] = None

    def _make_batch(self) -> ChangeBatch:
        if (
            self.insert_fraction >= 1.0
            and self.weight_change_fraction <= 0.0
        ):
            return random_insert_batch(
                self.graph, self.batch_size, seed=self._rng,
                low=self.low, high=self.high,
            )
        return random_mixed_batch(
            self.graph, self.batch_size,
            insert_fraction=self.insert_fraction, seed=self._rng,
            low=self.low, high=self.high,
            weight_change_fraction=self.weight_change_fraction,
        )

    def batches(self) -> Iterator[ChangeBatch]:
        """Yield ``steps`` batches *without* applying them."""
        for _ in range(self.steps):
            yield self._make_batch()

    @property
    def pending(self) -> Optional[ChangeBatch]:
        """The batch :meth:`play` applied but whose consumer never
        finished, or ``None`` when graph and consumer agree.

        ``play`` mutates the graph *before* invoking ``on_batch`` (the
        consumer needs the post-change topology), so a callback that
        raises leaves the graph exactly one batch ahead of the batches
        the consumer processed.  That batch is parked here instead of
        being silently lost.
        """
        return self._pending

    def resync(self) -> Optional[ChangeBatch]:
        """Return-and-clear the :attr:`pending` batch.

        After a consumer failure, feed the returned batch through the
        update path (or rebuild the tree from the graph) before calling
        :meth:`play` again; ``play`` refuses to run while a pending
        batch is unconsumed, so a crashed consumer cannot quietly skip
        the changes already applied to the graph.
        """
        batch, self._pending = self._pending, None
        return batch

    def play(
        self,
        on_batch: Optional[Callable[[int, ChangeBatch], None]] = None,
    ) -> int:
        """Generate, apply, and (optionally) report every batch.

        ``on_batch(step_index, batch)`` is called *after* the batch has
        been applied to the graph — the point at which an update
        algorithm would run.  Returns the number of steps played.

        If ``on_batch`` raises, the already-applied batch stays
        available via :attr:`pending` / :meth:`resync` so the consumer
        can catch the graph up; until it is resynced, ``play`` raises
        rather than drift another batch ahead.
        """
        if self._pending is not None:
            raise BatchError(
                "play() called with an unconsumed pending batch: the "
                "graph is ahead of the last consumer; call resync() "
                "and process the returned batch first"
            )
        for t in range(self.steps):
            batch = self._make_batch()
            batch.apply_to(self.graph)
            self._pending = batch
            if on_batch is not None:
                on_batch(t, batch)
            self._pending = None
        return self.steps
