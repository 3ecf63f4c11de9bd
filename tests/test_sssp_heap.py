"""Tests for the priority-queue substrates and queue-variant Dijkstra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AlgorithmError
from repro.graph import erdos_renyi, grid_road
from repro.sssp import dijkstra
from repro.sssp.heap import AddressableBinaryHeap, BucketQueue


class TestAddressableHeap:
    def test_pop_order(self):
        h = AddressableBinaryHeap()
        for item, key in [("a", 5.0), ("b", 1.0), ("c", 3.0)]:
            h.push(item, key)
        assert [h.pop() for _ in range(3)] == [
            ("b", 1.0), ("c", 3.0), ("a", 5.0)
        ]

    def test_decrease_key_moves_item(self):
        h = AddressableBinaryHeap()
        h.push("a", 9.0)
        h.push("b", 5.0)
        assert h.decrease_key("a", 1.0)
        assert h.pop() == ("a", 1.0)

    def test_decrease_key_ignores_increase(self):
        h = AddressableBinaryHeap()
        h.push("a", 2.0)
        assert not h.decrease_key("a", 7.0)
        assert h.key_of("a") == 2.0

    def test_decrease_key_inserts_absent(self):
        h = AddressableBinaryHeap()
        assert h.decrease_key("new", 4.0)
        assert "new" in h

    def test_duplicate_push_rejected(self):
        h = AddressableBinaryHeap()
        h.push("a", 1.0)
        with pytest.raises(AlgorithmError):
            h.push("a", 2.0)

    def test_empty_pop_peek_rejected(self):
        h = AddressableBinaryHeap()
        with pytest.raises(AlgorithmError):
            h.pop()
        with pytest.raises(AlgorithmError):
            h.peek()

    def test_peek_does_not_remove(self):
        h = AddressableBinaryHeap()
        h.push("a", 1.0)
        assert h.peek() == ("a", 1.0)
        assert len(h) == 1

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 1000, allow_nan=False), min_size=1,
                    max_size=100))
    def test_heapsort_matches_sorted(self, keys):
        h = AddressableBinaryHeap()
        for i, k in enumerate(keys):
            h.push(i, k)
        popped = [h.pop()[1] for _ in range(len(keys))]
        assert popped == sorted(keys)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 20),
                              st.floats(0, 100, allow_nan=False)),
                    min_size=1, max_size=150))
    def test_against_reference_with_decreases(self, ops):
        """Random push/decrease sequences agree with a dict + sort."""
        h = AddressableBinaryHeap()
        best = {}
        for item, key in ops:
            if item in best:
                if key < best[item]:
                    best[item] = key
                h.decrease_key(item, key)
            else:
                best[item] = key
                h.push(item, key)
        popped = []
        while len(h):
            popped.append(h.pop())
        assert sorted(popped, key=lambda p: (p[1], str(p[0]))) == sorted(
            ((i, k) for i, k in best.items()),
            key=lambda p: (p[1], str(p[0])),
        )
        assert [k for _, k in popped] == sorted(k for _, k in popped)


class TestBucketQueue:
    def test_fifo_by_priority(self):
        q = BucketQueue()
        q.insert("x", 3)
        q.insert("y", 1)
        q.insert("z", 2)
        assert q.pop_min() == ("y", 1)
        assert q.pop_min() == ("z", 2)
        assert q.pop_min() == ("x", 3)

    def test_decrease(self):
        q = BucketQueue()
        q.insert("x", 9)
        assert q.decrease("x", 2)
        assert not q.decrease("x", 5)
        assert q.pop_min() == ("x", 2)

    def test_decrease_inserts_absent(self):
        q = BucketQueue()
        assert q.decrease("new", 1)
        assert len(q) == 1

    def test_monotonicity_enforced(self):
        q = BucketQueue()
        q.insert("a", 5)
        q.pop_min()
        with pytest.raises(AlgorithmError):
            q.insert("b", 2)

    def test_negative_priority_rejected(self):
        q = BucketQueue()
        with pytest.raises(AlgorithmError):
            q.insert("a", -1)

    def test_duplicate_insert_rejected(self):
        q = BucketQueue()
        q.insert("a", 1)
        with pytest.raises(AlgorithmError):
            q.insert("a", 2)

    def test_empty_pop_rejected(self):
        with pytest.raises(AlgorithmError):
            BucketQueue().pop_min()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=80))
    def test_pop_sequence_sorted(self, prios):
        q = BucketQueue()
        for i, p in enumerate(prios):
            q.insert(i, p)
        out = [q.pop_min()[1] for _ in range(len(prios))]
        assert out == sorted(prios)


class TestDijkstraQueueVariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_variants_agree(self, seed):
        g = erdos_renyi(60, 300, seed=seed)
        lazy, _ = dijkstra(g, 0, queue="lazy")
        addr, _ = dijkstra(g, 0, queue="addressable")
        np.testing.assert_allclose(lazy, addr)

    def test_grid(self):
        g = grid_road(8, 8, seed=4)
        lazy, _ = dijkstra(g, 5, queue="lazy")
        addr, _ = dijkstra(g, 5, queue="addressable")
        np.testing.assert_allclose(lazy, addr)

    def test_unknown_queue_rejected(self):
        g = erdos_renyi(5, 10, seed=0)
        with pytest.raises(AlgorithmError):
            dijkstra(g, 0, queue="fibonacci")
