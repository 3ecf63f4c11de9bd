"""Property tests for the incremental (append-or-rebuild) CSR snapshot.

The contract of insertion batches through :meth:`CSRGraph.append_batch`
(the insert-only guard over :meth:`CSRGraph.apply_batch`'s pass): a
snapshot that has absorbed any sequence of appends is *observationally identical* to a
from-scratch freeze of the same edge list — per-vertex queries agree as
multisets while the tail exists, and after :meth:`CSRGraph.compact` the
frozen arrays are **byte-identical** to the from-scratch freeze (stable
sorting makes re-freezing order-insensitive).
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
    # compacting is exact, not just equivalent: stable sorts make the
    # (base, tail) concatenation freeze to the same arrays as the
    # original insertion order
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
    snap = _fresh(3, [(0, 1, 1.0), (1, 2, 2.0)])
    base_indices = snap.indices.copy()
    snap.append_batch(ChangeBatch.insertions([(2, 0, 5.0)]))
    assert not snap.is_compact
    assert snap.num_tail_edges == 1 and snap.m == 2 and snap.num_edges == 3
    # the frozen base is untouched; the new edge is query-visible
    np.testing.assert_array_equal(snap.indices, base_indices)
    assert snap.out_neighbors(2).tolist() == [0]
    assert snap.in_neighbors(0).tolist() == [2]
    assert snap.out_weights(2).tolist() == [5.0]


def test_rebuild_threshold_triggers_compact():
    n = 4
    snap = _fresh(n, [(0, 1, 1.0)])
    limit = max(CSRGraph.MIN_TAIL_REBUILD,
                int(CSRGraph.TAIL_REBUILD_FRACTION * snap.m))
    rng = np.random.default_rng(0)
    edges = [
        (int(u), int(v), 1.0)
        for u, v in rng.integers(0, n, size=(limit + 1, 2))
    ]
    snap.append_batch(ChangeBatch.insertions(edges))
    assert snap.is_compact, "tail past the limit must trigger a rebuild"
    assert snap.m == 1 + limit + 1


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
