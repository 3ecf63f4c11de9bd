"""Tests for repro.dynamic: batches, generators, streams, workloads."""

from collections import deque

import numpy as np
import pytest

from repro.dynamic import (
    KIND_DELETE,
    KIND_INSERT,
    KIND_WEIGHT,
    ChangeBatch,
    ChangeStream,
    local_insert_batch,
    random_delete_batch,
    random_insert_batch,
    random_mixed_batch,
    random_weight_change_batch,
)
from repro.dynamic.workloads import (
    drone_delivery_scenario,
    road_traffic_scenario,
    wsn_scenario,
)
from repro.errors import BatchError
from repro.graph import DiGraph, erdos_renyi, grid_road


def reference_hops(g: DiGraph, source: int) -> dict:
    """Reference BFS: hop count of every vertex reachable from
    ``source`` along directed edges."""
    hops = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v, _ in g.out_edges(u):
            if v not in hops:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


class TestChangeBatch:
    def test_insertions_constructor(self):
        b = ChangeBatch.insertions([(0, 1, 2.0), (1, 2, (3.0,))])
        assert b.num_insertions == 2
        assert b.num_objectives == 1

    def test_empty_insertions(self):
        b = ChangeBatch.insertions([])
        assert len(b) == 0

    def test_deletions_constructor(self):
        b = ChangeBatch.deletions([(0, 1)], k=2)
        assert b.num_deletions == 1
        assert b.num_objectives == 2

    def test_mixed_arity_rejected(self):
        with pytest.raises(BatchError):
            ChangeBatch.insertions([(0, 1, (1.0,)), (1, 2, (1.0, 2.0))])

    def test_length_mismatch_rejected(self):
        with pytest.raises(BatchError):
            ChangeBatch([0], [1, 2], np.ones((1, 1)), [True])

    def test_negative_vertex_rejected(self):
        with pytest.raises(BatchError):
            ChangeBatch.insertions([(-1, 0, 1.0)])

    def test_nan_insert_weight_rejected(self):
        with pytest.raises(BatchError):
            ChangeBatch.insertions([(0, 1, float("nan"))])

    def test_concat_preserves_order(self):
        a = ChangeBatch.insertions([(0, 1, 1.0)])
        b = ChangeBatch.deletions([(2, 3)])
        c = ChangeBatch.concat(a, b)
        assert c.num_changes == 2
        assert c.insert_mask.tolist() == [True, False]

    def test_concat_k_mismatch_rejected(self):
        a = ChangeBatch.insertions([(0, 1, 1.0)])
        b = ChangeBatch.insertions([(0, 1, (1.0, 2.0))])
        with pytest.raises(BatchError):
            ChangeBatch.concat(a, b)

    def test_concat_empty_rejected(self):
        with pytest.raises(BatchError):
            ChangeBatch.concat()

    def test_only_filters(self):
        c = ChangeBatch.concat(
            ChangeBatch.insertions([(0, 1, 1.0)]),
            ChangeBatch.deletions([(2, 3)]),
        )
        assert c.only_insertions().num_changes == 1
        assert c.only_deletions().num_changes == 1

    def test_apply_to_inserts_and_deletes(self):
        g = DiGraph(4)
        g.add_edge(2, 3, 1.0)
        batch = ChangeBatch.concat(
            ChangeBatch.insertions([(0, 1, 5.0)]),
            ChangeBatch.deletions([(2, 3)]),
        )
        eids = batch.apply_to(g)
        assert g.has_edge(0, 1)
        assert not g.has_edge(2, 3)
        assert len(eids) == 1

    def test_apply_missing_deletion_is_noop(self):
        g = DiGraph(3)
        ChangeBatch.deletions([(0, 1)]).apply_to(g)  # nothing to delete
        assert g.num_edges == 0

    def test_apply_out_of_range_rejected(self):
        g = DiGraph(2)
        with pytest.raises(BatchError):
            ChangeBatch.insertions([(0, 5, 1.0)]).apply_to(g)

    def test_apply_k_mismatch_rejected(self):
        g = DiGraph(2, k=2)
        with pytest.raises(BatchError):
            ChangeBatch.insertions([(0, 1, 1.0)]).apply_to(g)

    # -- mixed-kind record semantics (fully dynamic pipeline) ----------
    def test_weight_changes_constructor(self):
        b = ChangeBatch.weight_changes([(0, 1, 2.0), (1, 2, (3.0,))])
        assert b.num_weight_changes == 2
        assert b.num_insertions == 0 and b.num_deletions == 0
        assert b.kind.tolist() == [KIND_WEIGHT, KIND_WEIGHT]

    def test_apply_weight_change_overwrites_live_edge(self):
        g = DiGraph(2)
        g.add_edge(0, 1, 5.0)
        ChangeBatch.weight_changes([(0, 1, 2.0)]).apply_to(g)
        assert g.num_edges == 1
        assert g.min_weight_between(0, 1, 0) == 2.0

    def test_apply_weight_change_missing_edge_is_noop(self):
        g = DiGraph(3)
        g.add_edge(0, 1, 1.0)
        ChangeBatch.weight_changes([(1, 2, 9.0)]).apply_to(g)
        assert g.num_edges == 1
        assert not g.has_edge(1, 2)

    def test_apply_weight_change_targets_lex_min_parallel_edge(self):
        g = DiGraph(2)
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 1, 4.0)
        ChangeBatch.weight_changes([(0, 1, 9.0)]).apply_to(g)
        # the w=1 twin is rewritten; the w=4 twin survives untouched
        assert g.min_weight_between(0, 1, 0) == 4.0

    def test_apply_duplicate_deletions_remove_distinct_edges(self):
        g = DiGraph(2)
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 1, 2.0)
        b = ChangeBatch.deletions([(0, 1), (0, 1), (0, 1)])
        b.apply_to(g)  # third record finds nothing: idempotent skip
        assert g.num_edges == 0

    def test_apply_delete_removes_same_batch_insert(self):
        g = DiGraph(3)
        g.add_edge(0, 1, 1.0)
        b = ChangeBatch(
            np.array([1, 1], dtype=np.int64),
            np.array([2, 2], dtype=np.int64),
            np.array([[7.0], [0.0]]),
            np.array([KIND_INSERT, KIND_DELETE], dtype=np.int8),
        )
        b.apply_to(g)
        assert not g.has_edge(1, 2)
        assert g.num_edges == 1

    def test_apply_consecutive_weight_changes_last_wins(self):
        g = DiGraph(2)
        g.add_edge(0, 1, 5.0)
        ChangeBatch.weight_changes([(0, 1, 9.0), (0, 1, 2.0)]).apply_to(g)
        assert g.num_edges == 1
        assert g.min_weight_between(0, 1, 0) == 2.0

    def test_concat_reconciles_deletion_arity(self):
        # deletion-only batches are k-agnostic: their zero weights pad
        # to the weighted batches' arity instead of raising
        c = ChangeBatch.concat(
            ChangeBatch.insertions([(0, 1, (1.0, 2.0))]),
            ChangeBatch.deletions([(2, 3)]),  # built with default k=1
        )
        assert c.num_objectives == 2
        assert c.num_insertions == 1 and c.num_deletions == 1

    def test_concat_weighted_arity_conflict_still_rejected(self):
        a = ChangeBatch.weight_changes([(0, 1, 1.0)])
        b = ChangeBatch.insertions([(0, 1, (1.0, 2.0))])
        with pytest.raises(BatchError):
            ChangeBatch.concat(a, b)

    def test_only_weight_changes_filter(self):
        c = ChangeBatch.concat(
            ChangeBatch.insertions([(0, 1, 1.0)]),
            ChangeBatch.weight_changes([(1, 2, 3.0)]),
            ChangeBatch.deletions([(2, 3)]),
        )
        w = c.only_weight_changes()
        assert w.num_changes == 1 and w.num_weight_changes == 1
        assert c.only_deletions().num_changes == 1


class TestGenerators:
    def test_random_insert_size_and_range(self):
        g = erdos_renyi(20, 60, seed=0)
        b = random_insert_batch(g, 100, seed=1)
        assert b.num_insertions == 100
        assert b.src.max() < 20 and b.dst.max() < 20
        assert (b.src != b.dst).all()

    def test_random_insert_deterministic(self):
        g = erdos_renyi(20, 60, seed=0)
        b1 = random_insert_batch(g, 30, seed=5)
        b2 = random_insert_batch(g, 30, seed=5)
        np.testing.assert_array_equal(b1.src, b2.src)
        np.testing.assert_array_equal(b1.weights, b2.weights)

    def test_random_insert_too_small_graph(self):
        with pytest.raises(BatchError):
            random_insert_batch(DiGraph(1), 5)

    def test_local_insert_endpoints_close(self):
        g = grid_road(10, 10, seed=0, drop_fraction=0.0)
        b = local_insert_batch(g, 40, hops=3, seed=2)
        for u, v in zip(b.src.tolist(), b.dst.tolist()):
            assert 1 <= reference_hops(g, u).get(v, -1) <= 3

    def test_local_insert_needs_edges(self):
        with pytest.raises(BatchError):
            local_insert_batch(DiGraph(5), 3)

    def test_local_insert_bad_hops(self):
        g = erdos_renyi(10, 30, seed=0)
        with pytest.raises(BatchError):
            local_insert_batch(g, 3, hops=0)

    def test_delete_batch_from_live_edges(self):
        g = erdos_renyi(15, 40, seed=3)
        live = {(u, v) for u, v, _ in g.edges()}
        b = random_delete_batch(g, 10, seed=4)
        assert b.num_deletions == 10
        for u, v in zip(b.src.tolist(), b.dst.tolist()):
            assert (u, v) in live

    def test_delete_more_than_live_rejected(self):
        g = erdos_renyi(5, 6, seed=0)
        with pytest.raises(BatchError):
            random_delete_batch(g, 100)

    def test_mixed_fraction(self):
        g = erdos_renyi(30, 200, seed=5)
        b = random_mixed_batch(g, 40, insert_fraction=0.75, seed=6)
        assert b.num_insertions == 30
        assert b.num_deletions == 10

    def test_mixed_bad_fraction(self):
        g = erdos_renyi(5, 10, seed=0)
        with pytest.raises(BatchError):
            random_mixed_batch(g, 4, insert_fraction=1.5)

    def test_weight_change_batch_targets_live_edges(self):
        g = erdos_renyi(15, 40, seed=3)
        live = {(u, v) for u, v, _ in g.edges()}
        b = random_weight_change_batch(g, 10, seed=4)
        assert b.num_weight_changes == 10
        assert len(b) == 10
        for u, v in zip(b.src.tolist(), b.dst.tolist()):
            assert (u, v) in live

    def test_weight_change_batch_too_large_rejected(self):
        g = erdos_renyi(5, 6, seed=0)
        with pytest.raises(BatchError):
            random_weight_change_batch(g, 100)

    def test_mixed_with_weight_changes_counts(self):
        g = erdos_renyi(30, 200, seed=5)
        b = random_mixed_batch(g, 40, insert_fraction=0.5, seed=6,
                               weight_change_fraction=0.25)
        assert b.num_insertions == 20
        assert b.num_weight_changes == 10
        assert b.num_deletions == 10

    def test_mixed_shuffle_preserves_kinds(self):
        # regression: the shuffle used to rebuild the batch from
        # insert_mask, silently collapsing weight changes into deletions
        g = erdos_renyi(30, 200, seed=7)
        b = random_mixed_batch(g, 30, insert_fraction=0.4, seed=8,
                               weight_change_fraction=0.3)
        kinds = sorted(b.kind.tolist())
        assert kinds.count(KIND_INSERT) == 12
        assert kinds.count(KIND_WEIGHT) == 9
        assert kinds.count(KIND_DELETE) == 9

    def test_mixed_weight_change_fraction_overflow_rejected(self):
        g = erdos_renyi(10, 30, seed=0)
        with pytest.raises(BatchError):
            random_mixed_batch(g, 10, insert_fraction=0.8,
                               weight_change_fraction=0.5)


class TestChangeStream:
    def test_batches_do_not_mutate(self):
        g = erdos_renyi(10, 30, seed=0)
        before = g.num_edges
        stream = ChangeStream(g, batch_size=5, steps=3, seed=1)
        batches = list(stream.batches())
        assert len(batches) == 3
        assert g.num_edges == before

    def test_play_applies_and_calls_back(self):
        g = erdos_renyi(10, 30, seed=0)
        before = g.num_edges
        seen = []
        stream = ChangeStream(g, batch_size=5, steps=4, seed=1)
        steps = stream.play(on_batch=lambda t, b: seen.append((t, len(b))))
        assert steps == 4
        assert g.num_edges == before + 20
        assert seen == [(0, 5), (1, 5), (2, 5), (3, 5)]

    def test_mixed_stream(self):
        g = erdos_renyi(20, 100, seed=2)
        stream = ChangeStream(g, batch_size=10, steps=2,
                              insert_fraction=0.5, seed=3)
        for b in stream.batches():
            assert b.num_deletions > 0

    def test_stream_with_weight_changes(self):
        g = erdos_renyi(20, 100, seed=2)
        stream = ChangeStream(g, batch_size=10, steps=2,
                              insert_fraction=0.5,
                              weight_change_fraction=0.2, seed=3)
        for b in stream.batches():
            assert b.num_weight_changes > 0
            assert b.num_insertions > 0

    def test_bad_params(self):
        g = erdos_renyi(5, 10, seed=0)
        with pytest.raises(BatchError):
            ChangeStream(g, batch_size=-1, steps=1)
        with pytest.raises(BatchError):
            ChangeStream(g, batch_size=1, steps=-1)


class TestWorkloads:
    @pytest.mark.parametrize("builder", [
        lambda: road_traffic_scenario(n=200, steps=2, batch_size=5),
        lambda: wsn_scenario(n=200, steps=2, batch_size=5),
        lambda: drone_delivery_scenario(n=200, steps=2, batch_size=5),
    ])
    def test_scenarios_well_formed(self, builder):
        s = builder()
        assert s.graph.num_objectives == 2
        assert 0 <= s.source < s.graph.num_vertices
        assert len(s.objective_names) == 2
        batches = list(s.stream.batches())
        assert len(batches) == 2

    def test_anticorrelated_objectives(self):
        s = road_traffic_scenario(n=400, steps=1, batch_size=1)
        w = np.array([s.graph.weight(e) for _, _, e in s.graph.edges()])
        r = np.corrcoef(w[:, 0], w[:, 1])[0, 1]
        assert r < -0.2  # time/fuel trade-off present

    def test_scenarios_deterministic(self):
        a = road_traffic_scenario(n=150, seed=9)
        b = road_traffic_scenario(n=150, seed=9)
        assert a.graph.num_edges == b.graph.num_edges


class TestPlayFailureResync:
    """Satellite bug: ``play`` mutates the graph before the callback.

    A consumer that raises used to leave the graph silently one batch
    ahead of the tree it maintained.  The applied-but-unconsumed batch
    must now be parked on :attr:`pending`, ``play`` must refuse to run
    until it is resynced, and ``resync`` hands it back exactly once."""

    def _failing_stream(self):
        g = erdos_renyi(10, 30, seed=0)
        stream = ChangeStream(g, batch_size=5, steps=4, seed=1)
        seen = []

        def boom(t, batch):
            if t == 1:
                raise RuntimeError("consumer died mid-stream")
            seen.append((t, batch))

        return g, stream, seen, boom

    def test_failed_callback_parks_the_applied_batch(self):
        g, stream, seen, boom = self._failing_stream()
        before = g.num_edges
        with pytest.raises(RuntimeError):
            stream.play(on_batch=boom)
        # two batches reached the graph, the consumer only saw one
        assert g.num_edges == before + 10
        assert len(seen) == 1
        assert stream.pending is not None
        assert stream.pending.num_changes == 5

    def test_play_refuses_until_resynced(self):
        g, stream, _, boom = self._failing_stream()
        with pytest.raises(RuntimeError):
            stream.play(on_batch=boom)
        with pytest.raises(BatchError, match="pending"):
            stream.play()
        parked = stream.resync()
        assert parked is not None and parked.num_changes == 5
        assert stream.pending is None
        assert stream.resync() is None  # handed back exactly once
        # caught up: the stream is usable again
        assert stream.play() == 4

    def test_clean_play_leaves_nothing_pending(self):
        g = erdos_renyi(10, 30, seed=0)
        stream = ChangeStream(g, batch_size=5, steps=3, seed=1)
        assert stream.play() == 3
        assert stream.pending is None


class TestEditFeed:
    """Flattening batches to per-edge edits and back (service ingest)."""

    def test_round_trip_preserves_records(self):
        from repro.dynamic import batch_of, edits_of

        b = ChangeBatch(
            np.array([0, 1, 2]), np.array([1, 2, 3]),
            np.array([[2.0], [0.0], [4.0]]),
            np.array([KIND_INSERT, KIND_DELETE, KIND_WEIGHT],
                     dtype=np.int8),
        )
        edits = list(edits_of(b))
        assert [e.kind for e in edits] == [
            KIND_INSERT, KIND_DELETE, KIND_WEIGHT
        ]
        assert edits[1].weights is None  # deletions carry no weights
        rb = batch_of(edits, k=1)
        np.testing.assert_array_equal(rb.src, b.src)
        np.testing.assert_array_equal(rb.dst, b.dst)
        np.testing.assert_array_equal(rb.kind, b.kind)
        np.testing.assert_array_equal(rb.weights, b.weights)

    def test_batch_of_validates_arity(self):
        from repro.dynamic import EdgeEdit, batch_of

        with pytest.raises(BatchError):
            batch_of([EdgeEdit(KIND_INSERT, 0, 1, (1.0, 2.0))], k=1)
        with pytest.raises(BatchError):
            batch_of([EdgeEdit(KIND_WEIGHT, 0, 1, None)], k=1)
        assert batch_of([], k=1).num_changes == 0

    def test_stream_edits_applies_and_flattens(self):
        from itertools import islice

        from repro.dynamic import stream_edits

        g = erdos_renyi(10, 30, seed=0)
        before = g.num_edges
        stream = ChangeStream(g, batch_size=5, steps=2, seed=1)
        edits = list(islice(stream_edits(stream), 10))
        assert len(edits) == 10
        assert g.num_edges == before + 10
