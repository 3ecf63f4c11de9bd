"""Property tests for the incremental (per-vertex slack) CSR snapshot.

The contract of insertion batches through :meth:`CSRGraph.append_batch`
(the insert-only guard over :meth:`CSRGraph.apply_batch`'s pass): a
snapshot that has absorbed any sequence of appends is *observationally identical* to a
from-scratch freeze of the same edge list — per-vertex queries agree as
multisets while appended edges sit in spare slots, and after
:meth:`CSRGraph.compact` the arrays are **byte-identical** to the
from-scratch freeze (stable sorting makes re-freezing
order-insensitive).  Appended edges fill spare slots in place until
some region is full; then the layout is relaid once, with fresh spare
room for every vertex.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dynamic import ChangeBatch
from repro.errors import GraphError, VertexError
from repro.graph.csr import CSRGraph
from repro.graph.validation import validate_csr
from repro.types import VERTEX_DTYPE


def _coo(edges, k=1):
    src = np.asarray([e[0] for e in edges], dtype=np.int64)
    dst = np.asarray([e[1] for e in edges], dtype=np.int64)
    w = np.asarray([e[2] for e in edges], dtype=np.float64).reshape(-1, k)
    return src, dst, w


def _fresh(n, edges, k=1):
    return CSRGraph(n, *_coo(edges, k))


@st.composite
def base_and_appends(draw, max_n=12, max_appends=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edge = st.tuples(
        st.integers(0, n - 1),
        st.integers(0, n - 1),
        st.integers(0, 9).map(float),
    )
    base = draw(st.lists(edge, min_size=0, max_size=3 * n))
    appends = draw(
        st.lists(
            st.lists(edge, min_size=1, max_size=10),
            min_size=1,
            max_size=max_appends,
        )
    )
    return n, base, appends


@given(base_and_appends())
def test_append_matches_fresh_freeze(data):
    n, base, appends = data
    snap = _fresh(n, base)
    all_edges = list(base)
    for batch_edges in appends:
        snap.append_batch(ChangeBatch.insertions(batch_edges))
        all_edges += batch_edges
        fresh = _fresh(n, all_edges)
        validate_csr(snap)
        assert snap.num_edges == fresh.num_edges == len(all_edges)
        # per-vertex views agree as multisets whether or not the
        # snapshot happens to have compacted itself
        for v in range(n):
            assert sorted(
                zip(snap.out_neighbors(v), snap.out_weights(v))
            ) == sorted(zip(fresh.out_neighbors(v), fresh.out_weights(v)))
            assert sorted(
                zip(snap.in_neighbors(v), snap.in_weights(v))
            ) == sorted(zip(fresh.in_neighbors(v), fresh.in_weights(v)))
            assert snap.out_degree(v) == fresh.out_degree(v)
            assert snap.in_degree(v) == fresh.in_degree(v)
    # compacting is exact, not just equivalent: the live slots, base
    # edges then appended ones per vertex, freeze (stable sorts) to the
    # same arrays as the original insertion order
    snap.compact()
    fresh = _fresh(n, all_edges)
    for attr in ("indptr", "indices", "src", "rev_indptr",
                 "rev_indices", "edge_perm"):
        np.testing.assert_array_equal(
            getattr(snap, attr), getattr(fresh, attr), err_msg=attr
        )
    np.testing.assert_array_equal(snap.weights, fresh.weights)
    assert snap.is_compact and snap.num_tail_edges == 0


@given(base_and_appends(max_appends=3))
def test_edges_iteration_and_multiset(data):
    n, base, appends = data
    snap = _fresh(n, base)
    all_edges = list(base)
    for batch_edges in appends:
        snap.append_batch(ChangeBatch.insertions(batch_edges))
        all_edges += batch_edges
    got = sorted((u, v, float(w[0])) for u, v, w in snap.edges())
    want = sorted((u, v, float(w)) for u, v, w in all_edges)
    assert got == want
    assert snap.to_digraph().num_edges == len(all_edges)


def test_small_append_lands_in_tail():
    snap = _fresh(3, [(0, 1, 1.0), (1, 2, 2.0), (1, 0, 3.0)])
    # a fresh freeze has no spare slot: the first append relays it out
    # with SLACK spare slots per vertex, plus room for the append
    snap.append_batch(ChangeBatch.insertions([(1, 2, 5.0)]))
    assert not snap.is_compact
    assert snap.num_tail_edges == 1 and snap.num_edges == 4
    assert snap.m == 4 + 3 * CSRGraph.SLACK
    # the appended edge follows vertex 1's edges, which keep their order
    assert snap.out_neighbors(1).tolist() == [2, 0, 2]
    assert snap.out_weights(1).tolist() == [2.0, 3.0, 5.0]
    assert snap.in_neighbors(2).tolist() == [1, 1]
    # the next append lands in a spare slot: no array is replaced
    arrays = (snap.indices, snap.weights, snap.rev_indices, snap.edge_perm)
    snap.append_batch(ChangeBatch.insertions([(2, 0, 6.0)]))
    assert all(a is b for a, b in zip(arrays, (
        snap.indices, snap.weights, snap.rev_indices, snap.edge_perm)))
    assert snap.num_tail_edges == 2 and snap.m == 4 + 3 * CSRGraph.SLACK
    assert snap.out_neighbors(2).tolist() == [0]
    assert snap.in_neighbors(0).tolist() == [1, 2]
    validate_csr(snap)


def test_full_region_triggers_relayout():
    n = 4
    snap = _fresh(n, [(0, 1, 1.0), (0, 2, 2.0), (3, 0, 1.0)])
    snap.append_batch(ChangeBatch.insertions([(1, 3, 1.0)]))
    spare = snap.indptr[1:] - snap.out_end
    assert spare.min() == CSRGraph.SLACK
    snap.apply_batch(ChangeBatch.deletions([(0, 1)]))
    # fill vertex 0's spare slots exactly: written in place
    weights = snap.weights
    fill = [(0, 3, float(i)) for i in range(int(spare[0]))]
    snap.append_batch(ChangeBatch.insertions(fill))
    assert snap.weights is weights and snap.out_end[0] == snap.indptr[1]
    assert snap.num_dead == 1
    # one more: the whole layout is relaid, tombstones dropped, every
    # vertex's order kept, and every region gets its spare room back
    snap.append_batch(ChangeBatch.insertions([(0, 1, 9.0)]))
    assert snap.weights is not weights
    assert snap.num_dead == 0 and snap.num_tail_edges == 1
    assert (snap.indptr[1:] - snap.out_end).min() == CSRGraph.SLACK
    assert snap.out_neighbors(0).tolist() == [2] + [3] * len(fill) + [1]
    assert snap.out_weights(0).tolist() == (
        [2.0] + [w for _, _, w in fill] + [9.0])
    assert snap.in_neighbors(3).tolist() == [1] + [0] * len(fill)
    validate_csr(snap)


def test_append_batch_rejects_deletions():
    snap = _fresh(3, [(0, 1, 1.0)])
    batch = ChangeBatch.insertions([(1, 2, (1.0,))])
    snap.append_batch(batch)
    assert snap.num_edges == 2
    deletion = ChangeBatch.deletions([(0, 1)])
    with pytest.raises(GraphError):
        snap.append_batch(deletion)


def test_append_validates_endpoints_and_k():
    snap = _fresh(3, [(0, 1, 1.0)])
    with pytest.raises(VertexError):
        snap.append_batch(ChangeBatch.insertions([(5, 0, 1.0)]))
    with pytest.raises(GraphError):
        # k=2 into a k=1 snapshot
        snap.append_batch(ChangeBatch.insertions([(0, 1, (1.0, 2.0))]))
    assert snap.num_edges == 1 and snap.is_compact


def test_ensure_compacts_in_place():
    snap = _fresh(3, [(0, 1, 1.0)])
    snap.apply_batch(ChangeBatch.insertions([(1, 2, 2.0)]))
    assert not snap.is_compact
    out = CSRGraph.ensure(snap)
    assert out is snap and snap.is_compact and snap.m == 2
    assert snap.indptr.dtype == VERTEX_DTYPE
