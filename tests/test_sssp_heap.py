"""Tests for the bucket-queue substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AlgorithmError
from repro.sssp.heap import BucketQueue


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
