"""Differential suite for the one-pass batch appliers.

``ChangeBatch.apply_to`` (on a :class:`~repro.graph.digraph.DiGraph`)
and :meth:`~repro.graph.csr.CSRGraph.apply_batch` apply a mixed batch
in one pass: the DiGraph writes every inserted weight row in one slice
and loops over plain lists; the CSR snapshot writes every insertion
into spare slots and resolves each deletion or weight change against
its source's live forward range.  The per-record loops they replaced live in
``tests/_graph_apply_reference.py``; here both must agree with them:

- **DiGraph** — the same edge ids, per-id alive flags and weights, and
  the same adjacency order.
- **CSR** — the same slot layout when no relayout fired, the same
  live per-vertex ranges (in order, with weights) and the same layout
  after compacting both copies when one did (the per-record loop
  relays out when one record needs room, the library once per batch);
  the stamps change when their arrays change and exactly when the
  per-record loop changed them; the layout always validates.
- **Live weights** — :meth:`CSRGraph.min_weight_between` equals
  :meth:`DiGraph.min_weight_between` bitwise for every pair.
- **All or nothing** — a record corrupted after construction makes the
  apply raise with graph, snapshot and stamps untouched.

Batches interleave ``append_batch`` with ``apply_batch``, draw equal-weight and k=2 lexicographic ties, delete or
re-weight edges inserted earlier in the same batch, hit pairs with no
live edge, and overflow the spare slots (a snapshot class with a
``SLACK`` of one slot).  Some runs swap the snapshot for a pickled or
deep-copied one, which must apply identically.
"""

from __future__ import annotations

import copy
import pickle
from typing import Dict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dynamic.changes import (
    KIND_DELETE,
    KIND_INSERT,
    KIND_WEIGHT,
    ChangeBatch,
)
from repro.errors import BatchError, GraphError, VertexError, WeightError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.validation import validate_csr
from tests._graph_apply_reference import (
    CountedCSR,
    append_edges_reference,
    apply_batch_reference,
    apply_to_reference,
    live_ranges,
    relayouts,
)

#: The arrays :attr:`CSRGraph.topology_stamp` fingerprints; ``weights``
#: has :attr:`CSRGraph.weights_stamp`.
TOPOLOGY_ARRAYS = (
    "indptr", "out_end", "indices", "src",
    "rev_indptr", "in_end", "rev_indices", "edge_perm",
)
CSR_ARRAYS = TOPOLOGY_ARRAYS + ("weights",)


class TinyTailCSR(CountedCSR):
    """Keeps one spare slot per vertex, so the edges appended to a
    vertex (its tail) overflow after one and short streams relay."""

    SLACK = 1


def make_batch(records, k: int) -> ChangeBatch:
    """``records`` are ``(kind, u, v, weight_tuple)``."""
    b = len(records)
    return ChangeBatch(
        np.array([r[1] for r in records], dtype=np.int64).reshape(b),
        np.array([r[2] for r in records], dtype=np.int64).reshape(b),
        np.array([r[3] for r in records], dtype=np.float64).reshape(b, k),
        np.array([r[0] for r in records], dtype=np.int8).reshape(b),
    )


# ----------------------------------------------------------------------
# comparators
# ----------------------------------------------------------------------
def digraph_state(g: DiGraph):
    slots = g.num_edge_slots
    return (
        [g.is_alive(e) for e in range(slots)],
        np.array([g.weight(e) for e in range(slots)]).reshape(
            slots, g.num_objectives
        ),
        [list(g.out_edges(u)) for u in range(g.num_vertices)],
        [list(g.in_edges(v)) for v in range(g.num_vertices)],
        g.num_edges,
    )


def assert_same_digraph(got: DiGraph, ref: DiGraph) -> None:
    g_alive, g_w, g_out, g_in, g_m = digraph_state(got)
    r_alive, r_w, r_out, r_in, r_m = digraph_state(ref)
    assert g_alive == r_alive
    np.testing.assert_array_equal(g_w, r_w)
    assert g_out == r_out and g_in == r_in
    assert g_m == r_m


def csr_layout(csr: CSRGraph) -> Dict[str, np.ndarray]:
    out = {name: np.array(getattr(csr, name)) for name in CSR_ARRAYS}
    out["counts"] = np.array([csr.m, csr.num_dead, csr.num_edges])
    return out


def assert_same_layout(got: CSRGraph, ref: CSRGraph) -> None:
    a, b = csr_layout(got), csr_layout(ref)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


def compacted(csr: CSRGraph) -> CSRGraph:
    clone = copy.deepcopy(csr)
    clone.compact()
    return clone


def assert_live_weights(csr: CSRGraph, g: DiGraph) -> None:
    n = g.num_vertices
    us, vs = np.divmod(np.arange(n * n, dtype=np.int64), n)
    for obj in range(g.num_objectives):
        want = np.array(
            [g.min_weight_between(u, v, obj)
             for u, v in zip(us.tolist(), vs.tolist())],
            dtype=np.float64,
        )
        np.testing.assert_array_equal(
            csr.min_weight_between(us, vs, obj), want
        )


class Pair:
    """The library's graph + snapshot beside the reference's."""

    def __init__(self, n: int, k: int, base, snapshot_cls) -> None:
        self.g = DiGraph(n, k)
        for u, v, w in base:
            self.g.add_edge(u, v, w)
        self.g_ref = copy.deepcopy(self.g)
        self.csr = snapshot_cls.from_digraph(self.g)
        self.csr_ref = snapshot_cls.from_digraph(self.g)

    def step(self, batch: ChangeBatch, append: bool) -> None:
        before = [(c.topology_stamp, c.weights_stamp, csr_layout(c),
                   relayouts(c)) for c in (self.csr, self.csr_ref)]
        assert batch.apply_to(self.g) == apply_to_reference(
            batch, self.g_ref
        )
        if append:
            self.csr.append_batch(batch)
            append_edges_reference(self.csr_ref, *batch.insert_records())
        else:
            self.csr.apply_batch(batch)
            apply_batch_reference(self.csr_ref, batch)
        self.check(before)

    def check(self, before) -> None:
        assert_same_digraph(self.g, self.g_ref)
        relaid = any(
            relayouts(c) != b[3]
            for c, b in zip((self.csr, self.csr_ref), before)
        )
        assert live_ranges(self.csr) == live_ranges(self.csr_ref)
        if relaid:
            assert_same_layout(compacted(self.csr), compacted(self.csr_ref))
        else:
            assert_same_layout(self.csr, self.csr_ref)
            assert self.csr.num_tail_edges == self.csr_ref.num_tail_edges
        self.check_stamps(before, relaid)
        if relaid:
            # the per-record loop may relay mid-batch, leaving another
            # (equally valid) layout; carry on from the library's
            self.csr_ref = copy.deepcopy(self.csr)
        validate_csr(self.csr)
        assert self.csr.num_edges == self.g.num_edges
        assert_live_weights(self.csr, self.g)

    def check_stamps(self, before, relaid: bool) -> None:
        moved = []
        for c, (topology_stamp, weights_stamp, layout, _n) in zip(
            (self.csr, self.csr_ref), before
        ):
            now = csr_layout(c)
            topology_changed = any(
                not np.array_equal(now[a], layout[a])
                for a in TOPOLOGY_ARRAYS
            )
            weights_changed = not np.array_equal(
                now["weights"], layout["weights"]
            )
            # shm engines re-plant by stamp: a changed array must move it
            if topology_changed:
                assert c.topology_stamp != topology_stamp
            if weights_changed:
                assert c.weights_stamp != weights_stamp
            moved.append((c.topology_stamp != topology_stamp,
                          c.weights_stamp != weights_stamp))
        if not relaid:
            # ... and it moves exactly when the per-record loop moved it
            assert moved[0] == moved[1]

    def swap_snapshot(self, how: str) -> None:
        clone = (pickle.loads(pickle.dumps(self.csr)) if how == "pickle"
                 else copy.deepcopy(self.csr))
        assert clone.stamp != self.csr.stamp
        assert_same_layout(clone, self.csr)
        self.csr = clone


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    k = draw(st.sampled_from([1, 2]))
    vertex = st.integers(0, n - 1)
    weight = st.tuples(*([st.integers(0, 3).map(float)] * k))
    base = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=4 * n))
    record = st.tuples(
        st.sampled_from([KIND_DELETE, KIND_INSERT, KIND_WEIGHT]),
        vertex, vertex, weight,
    )
    insertion = st.tuples(st.just(KIND_INSERT), vertex, vertex, weight)
    step = st.one_of(
        st.tuples(st.just(False), st.lists(record, max_size=24)),
        st.tuples(st.just(True), st.lists(insertion, max_size=6)),
    )
    steps = draw(st.lists(step, min_size=1, max_size=5))
    snapshot_cls = draw(st.sampled_from([CountedCSR, TinyTailCSR]))
    swap = draw(st.sampled_from([None, "pickle", "deepcopy"]))
    swap_at = draw(st.integers(0, len(steps) - 1))
    return n, k, base, steps, snapshot_cls, swap, swap_at


@given(scenarios())
def test_one_pass_appliers_match_the_per_record_loops(scenario):
    n, k, base, steps, snapshot_cls, swap, swap_at = scenario
    pair = Pair(n, k, base, snapshot_cls)
    for i, (append, records) in enumerate(steps):
        if swap is not None and i == swap_at:
            pair.swap_snapshot(swap)
        pair.step(make_batch(records, k), append)


# ----------------------------------------------------------------------
# named cases
# ----------------------------------------------------------------------
D, I, W = KIND_DELETE, KIND_INSERT, KIND_WEIGHT

NAMED = {
    # equal-weight parallels: the first in order is the target
    "tie_delete": (1, [(0, 1, (2.0,)), (0, 1, (2.0,))],
                   [(I, 0, 1, (2.0,)), (D, 0, 1, (0.0,)),
                    (D, 0, 1, (0.0,))]),
    "tie_reweight": (1, [(0, 1, (2.0,)), (0, 1, (2.0,))],
                     [(I, 0, 1, (2.0,)), (W, 0, 1, (7.0,)),
                      (W, 0, 1, (5.0,))]),
    # an edge inserted earlier in the same batch is a target; one
    # inserted later is not
    "same_batch_insert": (1, [],
                          [(D, 1, 2, (0.0,)), (I, 1, 2, (3.0,)),
                           (W, 1, 2, (1.0,)), (I, 1, 2, (0.5,)),
                           (D, 1, 2, (0.0,))]),
    "reweight_then_delete": (1, [(2, 0, (4.0,)), (2, 0, (6.0,))],
                             [(W, 2, 0, (9.0,)), (D, 2, 0, (0.0,)),
                              (W, 2, 0, (1.0,))]),
    "no_live_match": (1, [(0, 1, (1.0,))],
                      [(D, 1, 0, (0.0,)), (W, 2, 2, (1.0,)),
                       (D, 0, 1, (0.0,)), (D, 0, 1, (0.0,)),
                       (W, 0, 1, (3.0,))]),
    # k = 2: the first component ties, the second decides
    "k2_lex_ties": (2, [(0, 1, (1.0, 3.0)), (0, 1, (1.0, 2.0)),
                        (0, 1, (2.0, 0.0))],
                    [(I, 0, 1, (1.0, 2.0)), (D, 0, 1, (0.0, 0.0)),
                     (W, 0, 1, (5.0, 5.0)), (D, 0, 1, (0.0, 0.0)),
                     (W, 0, 1, (0.0, 9.0))]),
    # more insertions out of each vertex than it has spare slots,
    # mixed with deletes
    "tail_rebuild": (1, [(0, 1, (1.0,))],
                     [(I, i % 3, (i + 1) % 3, (float(i % 4),))
                      for i in range(3 * CSRGraph.SLACK + 5)]
                     + [(D, 0, 1, (0.0,)), (W, 1, 2, (0.0,))]),
}


@pytest.mark.parametrize("name", sorted(NAMED))
@pytest.mark.parametrize("snapshot_cls", [CountedCSR, TinyTailCSR])
def test_named_batches(name, snapshot_cls):
    k, base, records = NAMED[name]
    pair = Pair(3, k, base, snapshot_cls)
    # twice: once on a compact snapshot, once on one with appended
    # edges in its regions
    pair.step(make_batch(records, k), append=False)
    pair.step(make_batch(records, k), append=False)


def test_tail_rebuild_relays_once_before_the_pass():
    k, base, records = NAMED["tail_rebuild"]
    pair = Pair(3, k, base, CountedCSR)
    for step in range(3):
        pair.step(make_batch(records, k), append=False)
        # once per batch, for all of its insertions, before its records
        # apply: the batch's own tombstone outlives it
        assert relayouts(pair.csr) == step + 1
        assert pair.csr.num_tail_edges == 3 * CSRGraph.SLACK + 5
        assert pair.csr.num_dead == 1
        spare = pair.csr.indptr[1:] - pair.csr.out_end
        assert spare.min() == CSRGraph.SLACK


def test_tie_targets_the_first_parallel():
    g = DiGraph(2)
    g.add_edge(0, 1, 2.0)
    g.add_edge(0, 1, 2.0)
    csr = CSRGraph.from_digraph(g)
    batch = ChangeBatch.deletions([(0, 1)])
    batch.apply_to(g)
    csr.apply_batch(batch)
    assert [g.is_alive(e) for e in range(2)] == [False, True]
    assert csr.weights[:, 0].tolist() == [np.inf, 2.0]


def test_stamps_stay_when_nothing_is_written():
    g = DiGraph(3)
    g.add_edge(0, 1, 1.0)
    csr = CSRGraph.from_digraph(g)
    csr.append_batch(ChangeBatch.insertions([(1, 2, 1.0)]))
    stamps = (csr.topology_stamp, csr.weights_stamp, csr.stamp)
    csr.apply_batch(ChangeBatch.deletions([(2, 0), (1, 0)]))
    csr.apply_batch(ChangeBatch.weight_changes([(2, 1, 4.0)]))
    assert (csr.topology_stamp, csr.weights_stamp, csr.stamp) == stamps
    # a weight-only write moves the weights stamp, not the topology one
    csr.apply_batch(ChangeBatch.weight_changes([(1, 2, 4.0)]))
    assert csr.topology_stamp == stamps[0]
    assert csr.weights_stamp != stamps[1]
    assert csr.stamp != stamps[2]
    # an insertion into spare slots writes both
    stamps = (csr.topology_stamp, csr.weights_stamp)
    indices = csr.indices
    csr.append_batch(ChangeBatch.insertions([(2, 0, 1.0)]))
    assert csr.indices is indices, "wrote spare slots, no relayout"
    assert csr.topology_stamp != stamps[0]
    assert csr.weights_stamp != stamps[1]


def test_short_epochs_write_in_place():
    """One- and two-edit epochs (the service's) write spare slots in
    place: no relayout while a region has room, and each vertex's live
    range grows in record order."""
    g = DiGraph(4)
    g.add_edge(0, 1, 1.0)
    csr = CountedCSR.from_digraph(g)
    # the first insertion relays the slack-free snapshot out
    csr.append_batch(ChangeBatch.insertions([(3, 1, 1.0)]))
    assert relayouts(csr) == 1
    arrays = [csr.indices, csr.weights, csr.rev_indices, csr.edge_perm]
    for w, (u, v) in enumerate([(1, 2), (2, 3), (1, 2)]):
        csr.append_batch(ChangeBatch.insertions([(u, v, float(w))]))
        csr.apply_batch(ChangeBatch.deletions([(0, 3)]))
    assert relayouts(csr) == 1
    assert all(a is b for a, b in zip(arrays, [
        csr.indices, csr.weights, csr.rev_indices, csr.edge_perm]))
    assert csr.out_neighbors(1).tolist() == [2, 2]
    assert csr.out_weights(1).tolist() == [0.0, 2.0]
    assert csr.in_neighbors(2).tolist() == [1, 1]
    assert csr.in_neighbors(1).tolist() == [0, 3]
    assert csr.num_tail_edges == 4


# ----------------------------------------------------------------------
# all or nothing
# ----------------------------------------------------------------------
@st.composite
def corrupted(draw):
    n, k, base, steps, *_ = draw(scenarios())
    vertex = st.integers(0, n - 1)
    weight = st.tuples(*([st.integers(0, 3).map(float)] * k))
    record = st.tuples(
        st.sampled_from([KIND_DELETE, KIND_INSERT, KIND_WEIGHT]),
        vertex, vertex, weight,
    )
    records = draw(st.lists(record, min_size=1, max_size=16))
    j = draw(st.integers(0, len(records) - 1))
    flaw = draw(st.sampled_from(["nan", "inf", "negative", "vertex"]))
    if flaw != "vertex" and records[j][0] == KIND_DELETE:
        flaw = "vertex"  # a deletion's weight is never read
    return n, k, base, steps, records, j, flaw


@given(corrupted())
def test_a_bad_record_leaves_everything_untouched(case):
    n, k, base, steps, records, j, flaw = case
    pair = Pair(n, k, base, CountedCSR)
    for append, recs in steps:  # start from a snapshot with history
        pair.step(make_batch(recs, k), append)
    batch = make_batch(records, k)
    if flaw == "vertex":
        batch.dst[j] = n
        errors = (BatchError, VertexError)
    else:
        batch.weights[j, k - 1] = {"nan": np.nan, "inf": np.inf,
                                   "negative": -1.0}[flaw]
        errors = (WeightError, WeightError)
    g_before = digraph_state(pair.g)
    arrays_before = pair.g.edge_arrays()
    csr_before = csr_layout(pair.csr)
    stamps = pair.csr.stamp
    with pytest.raises(errors[0]):
        batch.apply_to(pair.g)
    with pytest.raises(errors[1]):
        pair.csr.apply_batch(batch)
    g_after = digraph_state(pair.g)
    assert g_after[0] == g_before[0] and g_after[2:] == g_before[2:]
    np.testing.assert_array_equal(g_after[1], g_before[1])
    for a, b in zip(pair.g.edge_arrays(), arrays_before):
        np.testing.assert_array_equal(a, b)
    after = csr_layout(pair.csr)
    for name in csr_before:
        np.testing.assert_array_equal(after[name], csr_before[name])
    assert pair.csr.stamp == stamps
    validate_csr(pair.csr)


def test_arity_mismatch_is_refused_before_any_write():
    g = DiGraph(3, k=2)
    g.add_edge(0, 1, (1.0, 1.0))
    csr = CSRGraph.from_digraph(g)
    batch = ChangeBatch.insertions([(1, 2, 1.0)])
    with pytest.raises(BatchError):
        batch.apply_to(g)
    with pytest.raises(GraphError):
        csr.apply_batch(batch)
    assert g.num_edge_slots == 1 and csr.num_tail_edges == 0
    # a deletion-only batch carries no weights: its arity is free
    ChangeBatch.deletions([(0, 1)], k=1).apply_to(g)
    csr.apply_batch(ChangeBatch.deletions([(0, 1)], k=1))
    assert g.num_edges == csr.num_edges == 0
