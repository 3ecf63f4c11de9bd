"""Priority-queue substrate for the SSSP solvers.

:class:`BucketQueue` is the monotone integer-bucket queue underlying
Δ-stepping and Dial's algorithm, built from scratch: O(1)
insert/decrease, pop scans forward from the current bucket (total
O(max_priority) across a run).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import AlgorithmError

__all__ = ["BucketQueue"]


class BucketQueue:
    """Monotone bucket queue over non-negative integer priorities.

    ``pop_min`` scans forward from the last popped bucket, so
    priorities must never drop below it (the monotonicity Dijkstra-like
    algorithms guarantee).  ``decrease`` moves an item to a lower
    bucket.

    Examples
    --------
    >>> q = BucketQueue()
    >>> q.insert('x', 3); q.insert('y', 1)
    >>> q.decrease('x', 2)
    >>> q.pop_min()
    ('y', 1)
    >>> q.pop_min()
    ('x', 2)
    """

    __slots__ = ("_buckets", "_where", "_cursor", "_count")

    def __init__(self) -> None:
        self._buckets: List[set] = []
        self._where: Dict[object, int] = {}
        self._cursor = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _ensure(self, b: int) -> None:
        while b >= len(self._buckets):
            self._buckets.append(set())

    def insert(self, item, priority: int) -> None:
        """Insert a new item at integer ``priority``."""
        if priority < 0:
            raise AlgorithmError("priorities must be non-negative")
        if item in self._where:
            raise AlgorithmError(f"item {item!r} already queued")
        if priority < self._cursor:
            raise AlgorithmError(
                f"monotonicity violated: {priority} < cursor {self._cursor}"
            )
        self._ensure(priority)
        self._buckets[priority].add(item)
        self._where[item] = priority
        self._count += 1

    def decrease(self, item, priority: int) -> bool:
        """Move ``item`` to a lower bucket (insert if absent)."""
        old = self._where.get(item)
        if old is None:
            self.insert(item, priority)
            return True
        if priority >= old:
            return False
        if priority < self._cursor:
            raise AlgorithmError(
                f"monotonicity violated: {priority} < cursor {self._cursor}"
            )
        self._buckets[old].discard(item)
        self._ensure(priority)
        self._buckets[priority].add(item)
        self._where[item] = priority
        return True

    def pop_min(self) -> Tuple[object, int]:
        """Remove and return ``(item, priority)`` from the lowest
        non-empty bucket."""
        if self._count == 0:
            raise AlgorithmError("pop from empty bucket queue")
        while (
            self._cursor < len(self._buckets)
            and not self._buckets[self._cursor]
        ):
            self._cursor += 1
        item = self._buckets[self._cursor].pop()
        del self._where[item]
        self._count -= 1
        return item, self._cursor
