"""Step 2's tie order over a maintained :class:`CSRGraph`.

A frontier vertex ``v`` reduces the candidates of all its in-edges
with :func:`~repro.core.kernels.segmented_argmin`, whose first witness
wins a tie.  Which parent a tie picks therefore follows ``v``'s in-edge
order: the edges ``v`` had when the snapshot was built come first, and
edges appended later follow in record order.  Pinned here on a tiny
graph where two marked predecessors tie exactly:

- a base in-edge from ``u1`` beats an appended one from ``u2 < u1``;
- of two appended in-edges, the earlier record wins;

and both still hold after a batch that overflows a vertex's spare
slots and so relays the whole layout out.  Step 1 runs the same pull,
so a tie between two of one batch's changed edges follows the same
in-edge order, not the batch's record order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SOSPTree, sosp_update
from repro.dynamic import KIND_INSERT, KIND_WEIGHT, ChangeBatch
from repro.graph import DiGraph
from repro.graph.csr import CSRGraph
from repro.sssp import dijkstra
from tests._graph_apply_reference import CountedCSR, relayouts

#: vertices: source 0; predecessors 1, 2, 3 of the target 4; vertex 5
#: is unreachable and only soaks up the inserts that overflow its
#: spare slots
SOURCE, TARGET, SPARE_SINK = 0, 4, 5


def _graph(base_preds):
    """Source 0 reaches 1, 2 and 3 at distance 10; every predecessor
    in ``base_preds`` has a base edge into the target."""
    g = DiGraph(6)
    for u in (1, 2, 3):
        g.add_edge(SOURCE, u, 10.0)
    for u in base_preds:
        g.add_edge(u, TARGET, 1.0)
    return g


def _apply(g, csr, tree, edges):
    batch = ChangeBatch.insertions(edges)
    batch.apply_to(g)
    csr.apply_batch(batch)
    sosp_update(csr, tree, batch)


def _overflow(g, csr, tree):
    """Insert more edges out of ``SPARE_SINK`` than any vertex has
    spare slots, so the snapshot relays its layout out."""
    relaid = relayouts(csr)
    loops = [(SPARE_SINK, SPARE_SINK, 1.0)] * (CSRGraph.SLACK + 1)
    _apply(g, csr, tree, loops)
    assert relayouts(csr) == relaid + 1


def _tie(g, csr, tree):
    """Drop the source's edges to 1, 2 and 3 to weight 1 at once: all
    three are marked in Step 1, and every in-edge of the target ties
    in Step 2."""
    _apply(g, csr, tree, [(SOURCE, u, 1.0) for u in (1, 2, 3)])
    dist, _ = dijkstra(g, SOURCE)
    np.testing.assert_array_equal(tree.dist, dist)
    assert tree.dist[TARGET] == 2.0
    tree.certify(g)
    return int(tree.parent[TARGET])


@pytest.mark.parametrize("relayout", [False, True])
def test_base_in_edge_beats_an_appended_smaller_id(relayout):
    g = _graph(base_preds=[2])
    csr = CountedCSR.from_digraph(g)
    tree = SOSPTree.build(g, SOURCE)
    _apply(g, csr, tree, [(1, TARGET, 1.0)])  # ties the base edge
    if relayout:
        _overflow(g, csr, tree)
    assert _tie(g, csr, tree) == 2


@pytest.mark.parametrize("relayout", [False, True])
def test_earlier_appended_record_wins(relayout):
    g = _graph(base_preds=[])
    csr = CountedCSR.from_digraph(g)
    tree = SOSPTree.build(g, SOURCE)
    # 3 is recorded before 1: in one batch, and across two batches
    _apply(g, csr, tree, [(3, TARGET, 1.0), (1, TARGET, 1.0)])
    _apply(g, csr, tree, [(2, TARGET, 1.0)])
    if relayout:
        _overflow(g, csr, tree)
    assert _tie(g, csr, tree) == 3


@pytest.mark.parametrize("maintained", [False, True])
@pytest.mark.parametrize("new_w, invalidated", [(7.0, False), (12.0, True)])
def test_step1_tie_follows_in_edge_order(maintained, new_w, invalidated):
    """Head 3 gets, in one batch, an inserted edge ``2 -> 3`` and a
    re-weight of its base edge ``1 -> 3`` to the same weight, recorded
    in that order.  The two tie exactly, and the base edge's earlier
    slot wins.  A drop (10 -> 7) leaves 3 valid; a raise (10 -> 12)
    invalidates 3 first, and the tie is the same."""
    g = DiGraph(4)
    for u, v, w in [(0, 1, 5.0), (0, 2, 5.0), (1, 3, 10.0)]:
        g.add_edge(u, v, w)
    tree = SOSPTree.build(g, SOURCE)
    csr = CSRGraph.from_digraph(g)
    batch = ChangeBatch(
        np.array([2, 1], dtype=np.int64),
        np.array([3, 3], dtype=np.int64),
        np.array([[new_w], [new_w]], dtype=np.float64),
        np.array([KIND_INSERT, KIND_WEIGHT], dtype=np.int8),
    )
    batch.apply_to(g)
    csr.apply_batch(batch)
    stats = sosp_update(csr if maintained else g, tree, batch)
    assert stats.invalidated == int(invalidated)
    dist, _ = dijkstra(g, SOURCE)
    np.testing.assert_array_equal(tree.dist, dist)
    assert tree.dist[3] == 5.0 + new_w
    assert tree.parent[3] == 1
