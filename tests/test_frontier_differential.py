"""Differential suite for Step 2's graph reads at scale.

Two halves:

1. **Layout ≡ per-record replay.**  Over CSR snapshots that absorb
   insertions, deletions and weight changes, with relayouts forced or
   triggered by full regions, every vertex's live out-range and
   in-range must equal — in order, with weights — a replay of the
   edits one record at a time on plain per-vertex lists, and the
   frontier gather
   (:func:`~repro.core.affected.gather_unique_neighbors_csr`, a dense
   hit mask) must return exactly what the ``np.unique`` version in
   ``tests/_kernels_reference.py`` returns, duplicate and empty
   affected sets included.
2. **Large frontiers on every backend.**  The other kernel oracles draw
   graphs of at most 14 vertices, so no superstep there outgrows
   ``MIN_SLAB_ITEMS`` and multi-slab supersteps go untested.  Here
   insert-only and mixed streams run on ``road_like`` graphs of 2–5k
   vertices on serial, threads, simulated and shm (with forced
   dispatch and with the default cutoff); distances must equal a
   from-scratch Dijkstra bitwise and the trees must certify.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import SOSPTree, sosp_update
from repro.core.affected import gather_unique_neighbors_csr
from repro.core.kernels import MIN_SLAB_ITEMS
from repro.dynamic import ChangeBatch, random_insert_batch, random_mixed_batch
from repro.dynamic.changes import KIND_DELETE, KIND_INSERT, KIND_WEIGHT
from repro.graph import road_like
from repro.graph.csr import CSRGraph
from repro.graph.validation import validate_csr
from repro.obs.metrics import use_metrics
from repro.parallel import (
    SerialEngine,
    SharedMemoryEngine,
    SimulatedEngine,
    SlabTask,
    replay_trace,
    slab_spans,
)
from repro.parallel.api import MAX_SERIAL_SLAB_ITEMS, serial_spans
from repro.sssp import dijkstra
from tests._graph_apply_reference import live_ranges
from tests._kernels_reference import (
    frontier_bellman_ford_csr,
    gather_unique_neighbors_csr_reference,
)

K = 2


class OneSpareCSR(CSRGraph):
    """One spare slot per vertex: regions fill, and relay, often."""

    SLACK = 1


class Replay:
    """The edits replayed one record at a time on per-vertex lists of
    shared ``[u, v, weight, alive]`` edges, in the order a freeze lays
    them out: a vertex's out-edges in edge-list order, its in-edges by
    source, appended edges after both in record order."""

    def __init__(self, n, base):
        edges = [[u, v, tuple(w), True] for u, v, w in base]
        self.out = [[e for e in edges if e[0] == u] for u in range(n)]
        self.into = [
            sorted((e for e in edges if e[1] == v), key=lambda e: e[0])
            for v in range(n)
        ]

    def apply(self, records):
        for code, u, v, w in records:
            if code == KIND_INSERT:
                e = [u, v, tuple(w), True]
                self.out[u].append(e)
                self.into[v].append(e)
                continue
            live = [e for e in self.out[u] if e[1] == v and e[3]]
            if not live:
                continue
            target = min(live, key=lambda e: e[2])  # first on ties
            if code == KIND_DELETE:
                target[3] = False
            else:
                target[2] = tuple(w)

    def ranges(self):
        return [
            ([(e[1], e[2]) for e in out if e[3]],
             [(e[0], e[2]) for e in into if e[3]])
            for out, into in zip(self.out, self.into)
        ]


@st.composite
def edit_streams(draw, max_n=30):
    """A base edge list and a stream of steps: mixed batches, and
    forced relayouts."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    vertex = st.integers(0, n - 1)
    weight = st.tuples(*([st.integers(0, 9).map(float)] * K))
    base = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=3 * n))
    record = st.tuples(
        st.sampled_from([KIND_INSERT, KIND_INSERT, KIND_DELETE, KIND_WEIGHT]),
        vertex, vertex, weight,
    )
    step = st.one_of(st.lists(record, min_size=1, max_size=12),
                     st.just("relayout"))
    steps = draw(st.lists(step, min_size=1, max_size=6))
    cls = draw(st.sampled_from([CSRGraph, OneSpareCSR]))
    return n, base, steps, cls


def _batch(records):
    b = len(records)
    return ChangeBatch(
        np.array([r[1] for r in records], dtype=np.int64),
        np.array([r[2] for r in records], dtype=np.int64),
        np.array([r[3] for r in records], dtype=np.float64).reshape(b, K),
        np.array([r[0] for r in records], dtype=np.int8),
    )


def _assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)


def snapshots(stream):
    """Apply ``stream`` to a fresh snapshot and to a :class:`Replay`;
    yield both after every step."""
    n, base, steps, cls = stream
    csr = cls(
        n,
        np.array([u for u, _, _ in base], dtype=np.int64),
        np.array([v for _, v, _ in base], dtype=np.int64),
        np.array([w for _, _, w in base], dtype=np.float64).reshape(
            len(base), K
        ),
    )
    replay = Replay(n, base)
    for step in steps:
        if step == "relayout":
            csr._relayout()
        else:
            csr.apply_batch(_batch(step))
            replay.apply(step)
        yield csr, replay


class TestBookkeepingEqualsReference:
    @given(stream=edit_streams())
    def test_live_ranges_equal_a_per_record_replay(self, stream):
        for csr, replay in snapshots(stream):
            validate_csr(csr)
            assert live_ranges(csr) == replay.ranges()

    @given(stream=edit_streams(),
           ids=st.lists(st.integers(0, 10**6), max_size=60))
    def test_gather_equals_unique_gather(self, stream, ids):
        # duplicate ids, and an empty set when ``ids`` is
        affected = np.array(ids, dtype=np.int64) % stream[0]
        for csr, _ in snapshots(stream):
            _assert_bitwise(
                gather_unique_neighbors_csr(csr, affected),
                gather_unique_neighbors_csr_reference(csr, affected),
            )

    def test_empty_affected_set(self):
        csr = CSRGraph(
            3,
            np.array([0, 1], dtype=np.int64),
            np.array([1, 2], dtype=np.int64),
            np.ones((2, 1)),
        )
        csr.append_batch(ChangeBatch.insertions([(2, 0, 1.0)]))
        empty = np.empty(0, dtype=np.int64)
        _assert_bitwise(
            gather_unique_neighbors_csr(csr, empty),
            gather_unique_neighbors_csr_reference(csr, empty),
        )


# ----------------------------------------------------------------------
ENGINE_FACTORIES = {
    "serial": SerialEngine,
    # the multi-thread slot: two virtual threads
    "threads": lambda: SimulatedEngine(threads=2),
    "simulated": lambda: SimulatedEngine(threads=4),
    "shm-dispatch": lambda: SharedMemoryEngine(threads=2, min_dispatch_items=1),
    "shm": lambda: SharedMemoryEngine(threads=2),
}

GRAPHS = [(2000, 1), (5000, 2)]


@pytest.fixture(scope="module", params=list(ENGINE_FACTORIES))
def engine(request):
    e = ENGINE_FACTORIES[request.param]()
    yield e
    closer = getattr(e, "close", None)
    if callable(closer):
        closer()


def _assert_matches_dijkstra(g, tree):
    dist, _ = dijkstra(g, tree.source, tree.objective)
    np.testing.assert_array_equal(tree.dist, dist)
    tree.certify(g)


@pytest.mark.parametrize("n, seed", GRAPHS)
def test_insert_stream_matches_dijkstra(engine, n, seed):
    g = road_like(n, k=1, seed=seed)
    tree = SOSPTree.build(g, 0)
    snapshot = CSRGraph.from_digraph(g)
    dispatched = getattr(engine, "dispatched_supersteps", 0)
    widest = wasted = 0
    with use_metrics() as reg:
        for b in range(3):
            batch = random_insert_batch(g, 150, seed=100 * seed + b)
            old = tree.dist.copy()
            batch.apply_to(g)
            snapshot.apply_batch(batch)
            stats = sosp_update(snapshot, tree, batch, engine=engine)
            _assert_matches_dijkstra(g, tree)
            # insert-only: the affected set is exactly the vertices
            # whose distance dropped
            assert stats.affected_vertices == set(
                np.flatnonzero(tree.dist < old).tolist()
            )
            widest = max([widest, *stats.frontier_sizes])
            wasted += stats.affected_total - len(stats.affected_vertices)
        assert reg.snapshot()["sosp_wasted_improvements_total"] == wasted
    # frontiers big enough that a two-thread engine cuts several slabs
    assert widest > 2 * MIN_SLAB_ITEMS
    two_workers = SharedMemoryEngine(threads=2)  # sized, never started
    assert len(slab_spans(widest, two_workers, MIN_SLAB_ITEMS)) > 1
    if getattr(engine, "min_dispatch_items", None) == 1:
        assert engine.dispatched_supersteps > dispatched


@pytest.mark.parametrize("n, seed", GRAPHS)
def test_mixed_stream_matches_dijkstra(engine, n, seed):
    g = road_like(n, k=1, seed=seed)
    tree = SOSPTree.build(g, 0)
    snapshot = CSRGraph.from_digraph(g)
    wasted = 0
    with use_metrics() as reg:
        for b in range(3):
            batch = random_mixed_batch(
                g, 200, insert_fraction=0.5, weight_change_fraction=0.25,
                seed=100 * seed + b,
            )
            batch.apply_to(g)
            snapshot.apply_batch(batch)
            stats = sosp_update(snapshot, tree, batch, engine=engine)
            _assert_matches_dijkstra(g, tree)
            wasted += stats.affected_total - len(stats.affected_vertices)
        assert reg.snapshot()["sosp_wasted_improvements_total"] == wasted


class TestSimulatedSlabsSizedForReplay:
    """A one-thread recording ``SimulatedEngine`` must still record
    enough tasks per superstep for a 64-thread replay of its trace."""

    def test_recording_engine_records_many_tasks_per_superstep(self):
        # source -> 300 hubs -> 2 leaves each: frontiers of 300 and 600
        hubs, n = 300, 1 + 300 + 600
        src = [0] * hubs + [1 + h for h in range(hubs) for _ in (0, 1)]
        dst = list(range(1, 1 + hubs)) + list(range(1 + hubs, n))
        csr = CSRGraph(n, np.array(src), np.array(dst),
                       np.ones((len(src), 1)))
        eng = SimulatedEngine(threads=1, record_trace=True)
        dist, _ = frontier_bellman_ford_csr(csr, 0, engine=eng)
        assert np.isfinite(dist).all()
        tasks = [len(costs) for kind, costs in eng.trace
                 if kind == "superstep"]
        assert tasks and all(1 < t <= SimulatedEngine.replay_slabs
                             for t in tasks)
        assert replay_trace(eng.trace, 64) < replay_trace(eng.trace, 1)

    def test_spans_ignore_min_chunk_and_thread_count(self):
        for threads in (1, 4):
            eng = SimulatedEngine(threads=threads)
            assert len(slab_spans(100, eng, MIN_SLAB_ITEMS)) == 100
            spans = slab_spans(10_000, eng, MIN_SLAB_ITEMS)
            assert len(spans) == 256
            assert spans[0][0] == 0 and spans[-1][1] == 10_000


class TestOneSlabWithoutASecondThread:
    def test_serial_engine_gets_one_span(self):
        for n in (1, MIN_SLAB_ITEMS, 10 * MIN_SLAB_ITEMS + 3,
                  MAX_SERIAL_SLAB_ITEMS):
            assert slab_spans(n, SerialEngine(), MIN_SLAB_ITEMS) == [(0, n)]
        assert slab_spans(0, SerialEngine(), MIN_SLAB_ITEMS) == []

    def test_serial_slabs_stay_small(self):
        n = 5 * MAX_SERIAL_SLAB_ITEMS - 7
        spans = slab_spans(n, SerialEngine(), MIN_SLAB_ITEMS)
        assert spans == serial_spans(n)
        assert len(spans) == 5
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert max(hi - lo for lo, hi in spans) <= MAX_SERIAL_SLAB_ITEMS

    def test_multi_thread_engine_keeps_its_slabs(self):
        spans = slab_spans(1000, SharedMemoryEngine(threads=2), MIN_SLAB_ITEMS)
        assert len(spans) == 8
        assert spans[0][0] == 0 and spans[-1][1] == 1000

    def test_inline_shm_superstep_reports_one_span(self):
        # the default policy runs a kernel's first eligible superstep
        # inline, to learn its inline rate
        eng = SharedMemoryEngine(threads=2)
        try:
            n = 10 * MIN_SLAB_ITEMS
            view = np.ones(n, dtype=np.float64)
            task = SlabTask(ref="tests._shm_support:double_slab",
                            arrays={"out": view})
            results = eng.parallel_for_slabs(
                n, task, min_chunk=MIN_SLAB_ITEMS
            )
            assert results == [2.0 * n]
            assert eng.last_slab_spans == [(0, n)]
            assert eng.inline_supersteps == 1
            assert eng.dispatched_supersteps == 0
            np.testing.assert_array_equal(view, 2.0)
        finally:
            eng.close()
