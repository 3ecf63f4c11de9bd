"""Differential suite for Step 2's frontier bookkeeping at scale.

Two halves:

1. **Bookkeeping ≡ sort-based reference, bitwise.**  The frontier
   gather (:func:`~repro.core.affected.gather_unique_neighbors_csr`,
   a dense hit mask) and the COO-tail grouping
   (:func:`~repro.core.kernels.group_tail_by_position`, a position
   map) must return exactly what the ``np.unique`` / ``searchsorted``
   versions in ``tests/_kernels_reference.py`` return — over CSR
   snapshots with tails, tombstones in base and tail, isolated
   vertices, duplicate affected ids and empty affected sets.
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
from repro.core.kernels import MIN_SLAB_ITEMS, group_tail_by_position
from repro.dynamic import ChangeBatch, random_insert_batch, random_mixed_batch
from repro.graph import road_like
from repro.graph.csr import CSRGraph
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
from tests._kernels_reference import (
    frontier_bellman_ford_csr,
    gather_unique_neighbors_csr_reference,
    group_tail_by_position_reference,
)

K = 2


@st.composite
def csr_snapshots(draw, max_n=40):
    """A CSR snapshot with a live COO tail and tombstoned rows."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    vertex = st.integers(0, n - 1)
    weight = st.integers(min_value=0, max_value=9).map(float)
    edge = st.tuples(vertex, vertex, st.tuples(*([weight] * K)))
    base = draw(st.lists(edge, max_size=3 * n))
    # at most MIN_TAIL_REBUILD rows, so the append never re-freezes
    tail = draw(st.lists(edge, max_size=CSRGraph.MIN_TAIL_REBUILD))

    def columns(edges):
        return (
            np.array([u for u, _, _ in edges], dtype=np.int64),
            np.array([v for _, v, _ in edges], dtype=np.int64),
            np.array([w for _, _, w in edges], dtype=np.float64).reshape(
                len(edges), K
            ),
        )

    csr = CSRGraph(n, *columns(base))
    if tail:
        csr.append_batch(ChangeBatch.insertions(tail))
    assert csr.num_tail_edges == len(tail)
    live = [(u, v) for u, v, _ in base + tail]
    if live:
        dead = draw(st.lists(st.sampled_from(live), max_size=len(live)))
        if dead:
            csr.apply_batch(ChangeBatch.deletions(dead, k=K))
    return csr


@st.composite
def snapshot_and_ids(draw):
    """A snapshot plus an id list with duplicates (possibly empty)."""
    csr = draw(csr_snapshots())
    ids = draw(st.lists(st.integers(0, csr.n - 1), max_size=2 * csr.n))
    return csr, np.array(ids, dtype=np.int64)


def _assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)


class TestBookkeepingEqualsReference:
    @given(data=snapshot_and_ids())
    def test_gather_equals_unique_gather(self, data):
        csr, affected = data
        _assert_bitwise(
            gather_unique_neighbors_csr(csr, affected),
            gather_unique_neighbors_csr_reference(csr, affected),
        )

    @given(data=snapshot_and_ids(), objective=st.integers(0, K - 1))
    def test_tail_grouping_equals_searchsorted(self, data, objective):
        csr, ids = data
        # the kernel's frontiers are the gather's output; also try an
        # arbitrary sorted unique id set to reach tail rows the gather
        # would not hand it
        for frontier in (gather_unique_neighbors_csr(csr, ids), np.unique(ids)):
            if frontier.size == 0:
                continue
            posmap = np.full(csr.n, -1, dtype=np.int64)
            got = group_tail_by_position(csr, frontier, posmap, objective)
            want = group_tail_by_position_reference(csr, frontier, objective)
            for a, b in zip(got, want):
                _assert_bitwise(a, b)
            assert (posmap == -1).all(), "posmap not reset"

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
