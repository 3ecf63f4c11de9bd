"""Differential oracle for the array-pass SSSP certifier.

``repro.sssp.verify.certify_sssp`` must reach the same verdict — raise
:class:`TreeInvariantError` or pass — as the per-vertex loops it
replaced (``tests/_verify_reference.py``), on valid trees and on trees
corrupted in one slot: a distance that breaks parent-edge tightness, a
parent with no edge to its child, a parent that closes a cycle, and a
parent on an unreachable vertex.  Small integer weights (zero
included) make ties, parallel edges and tight zero-weight cycles
common.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TreeInvariantError
from repro.graph import DiGraph
from repro.sssp import certify_sssp, dijkstra
from tests._verify_reference import certify_sssp_reference


@st.composite
def solved_graphs(draw):
    """A small digraph (often not strongly connected) and its Dijkstra
    tree from vertex 0."""
    n = draw(st.integers(min_value=2, max_value=12))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(
        st.tuples(vertex, vertex, st.integers(min_value=0, max_value=4)),
        max_size=3 * n,
    ))
    g = DiGraph.from_edge_list(
        n, [(u, v, float(w)) for u, v, w in edges if u != v]
    )
    dist, parent = dijkstra(g, 0)
    return g, dist, parent


def _verdict(certify, g, dist, parent):
    try:
        certify(g, 0, dist.copy(), parent.copy())
    except TreeInvariantError:
        return False
    return True


def _same_verdict(g, dist, parent):
    new = _verdict(certify_sssp, g, dist, parent)
    assert new == _verdict(certify_sssp_reference, g, dist, parent)
    return new


@given(solved_graphs())
def test_valid_trees_pass_both(case):
    g, dist, parent = case
    assert _same_verdict(g, dist, parent)


@given(solved_graphs(), st.data())
def test_broken_tightness(case, data):
    g, dist, parent = case
    reach = np.flatnonzero(np.isfinite(dist))
    # prefer tree leaves: moving an inner vertex also makes its child
    # edges relaxable, which the edge pass catches on its own
    leaves = np.setdiff1d(reach, parent)
    pool = leaves if leaves.size else reach
    v = data.draw(st.sampled_from(pool.tolist()))
    dist[v] = data.draw(st.sampled_from(
        [dist[v] - 0.5, dist[v] + 0.5, dist[v] + 1e-12, 0.0, np.nan]
    ))
    _same_verdict(g, dist, parent)


@given(solved_graphs(), st.data())
def test_missing_or_misplaced_parent(case, data):
    g, dist, parent = case
    n = g.num_vertices
    v = data.draw(st.integers(min_value=0, max_value=n - 1))
    parent[v] = data.draw(st.integers(min_value=-2, max_value=n))
    _same_verdict(g, dist, parent)


@given(solved_graphs(), st.data())
def test_parent_closing_a_cycle(case, data):
    g, dist, parent = case
    reach = np.flatnonzero(np.isfinite(dist))
    if reach.size < 2:
        return
    v = data.draw(st.sampled_from(reach[reach != 0].tolist()))
    # a descendant of v (v itself included) as v's parent always closes
    # a cycle; only the ones backed by a tight edge survive to the
    # acyclicity check
    below = [u for u in reach.tolist() if _has_ancestor(parent, u, v)]
    parent[v] = data.draw(st.sampled_from(below))
    assert not _same_verdict(g, dist, parent)


@given(solved_graphs(), st.data())
def test_parent_on_unreachable_vertex(case, data):
    g, dist, parent = case
    lost = np.flatnonzero(~np.isfinite(dist))
    if lost.size == 0:
        return
    v = data.draw(st.sampled_from(lost.tolist()))
    parent[v] = data.draw(st.integers(0, g.num_vertices - 1))
    assert not _same_verdict(g, dist, parent)


def test_tight_zero_weight_cycle_is_caught():
    # 1 <-> 2 at weight 0: both parent edges are tight, only the
    # acyclicity pass can object
    g = DiGraph.from_edge_list(3, [(0, 1, 1.0), (1, 2, 0.0), (2, 1, 0.0)])
    dist = np.array([0.0, 1.0, 1.0])
    parent = np.array([-1, 2, 1])
    with pytest.raises(TreeInvariantError, match="cycle"):
        certify_sssp(g, 0, dist, parent)
    with pytest.raises(TreeInvariantError, match="cycle"):
        certify_sssp_reference(g, 0, dist, parent)


def _has_ancestor(parent, u, a):
    """Whether ``a`` is on ``u``'s parent chain (``u`` included)."""
    for _ in range(len(parent)):
        if u == a:
            return True
        if u < 0:
            return False
        u = int(parent[u])
    return False
