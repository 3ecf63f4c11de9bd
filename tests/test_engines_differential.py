"""Cross-backend differential property test (satellite 4).

Every backend family — serial, threads, processes, shm, simulated —
must produce the **identical** distance fixpoint for
``sosp_update``/``mosp_update`` over random graphs and insertion
batches.  For ``sosp_update`` the oracle is the pointer-chasing twin
in ``tests/_sosp_reference.py``; elsewhere serial is.  The engines only
change *how* the same supersteps execute (threads: real pool; processes: closure
round-trip or its documented serial fallback; shm: inline or slab
dispatch over planted shared-memory copies; simulated: virtual-clock replay), so the
label-correcting fixpoint is bitwise reproducible.

One shm engine runs with ``min_dispatch_items=1`` so even the tiny
hypothesis graphs take the real dispatch path; a second runs the
default measured dispatch policy, whose decisions must never move a
distance.  The process-pool engines are module-scoped — spawning a pool
per example would dominate the suite.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SOSPTree, apply_mixed_batch, mosp_update, sosp_update
from repro.core import kernels
from repro.dynamic import (
    KIND_DELETE,
    KIND_INSERT,
    KIND_WEIGHT,
    ChangeBatch,
)
from repro.graph import DiGraph
from repro.graph.csr import CSRGraph
from repro.parallel import (
    SerialEngine,
    SharedMemoryEngine,
    SimulatedEngine,
)
from tests._sosp_reference import sosp_update_reference

pytestmark = pytest.mark.slow

ENGINES = [
    SerialEngine(),
    SharedMemoryEngine(threads=2, min_dispatch_items=1),
    SharedMemoryEngine(threads=2),
    SimulatedEngine(threads=4),
]


def teardown_module(module) -> None:
    for e in ENGINES:
        closer = getattr(e, "close", None)
        if callable(closer):
            closer()


@st.composite
def graph_and_batches(draw, k=1, max_n=14, max_batches=3):
    """A random digraph plus a sequence of random insertion batches."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=3 * n))
    weight = st.integers(min_value=0, max_value=9).map(float)
    edge = st.tuples(
        st.integers(0, n - 1),
        st.integers(0, n - 1),
        st.tuples(*([weight] * k)),
    )
    edges = draw(st.lists(edge, min_size=0, max_size=m))
    g = DiGraph(n, k=k)
    for u, v, w in edges:
        g.add_edge(u, v, w)
    n_batches = draw(st.integers(1, max_batches))
    batches = [
        ChangeBatch.insertions(draw(st.lists(edge, min_size=1, max_size=8)))
        for _ in range(n_batches)
    ]
    return g, batches


def _run_sosp(engine, graph, batches):
    """Play the batches through the CSR kernel path on ``engine``."""
    g = copy.deepcopy(graph)
    tree = SOSPTree.build(g, 0)
    snapshot = CSRGraph.from_digraph(g)
    for batch in batches:
        batch.apply_to(g)
        snapshot.append_batch(batch)
        sosp_update(g, tree, batch, engine=engine, csr=snapshot)
    return tree


def _run_sosp_reference(graph, batches):
    """Play the batches through the pointer-chasing twin (serial)."""
    g = copy.deepcopy(graph)
    tree = SOSPTree.build(g, 0)
    for batch in batches:
        batch.apply_to(g)
        sosp_update_reference(g, tree, batch)
    return tree


@settings(max_examples=20, deadline=None)
@given(data=graph_and_batches())
def test_sosp_update_identical_across_backends(data):
    graph, batches = data
    reference = _run_sosp_reference(graph, batches)
    for engine in ENGINES:
        tree = _run_sosp(engine, graph, batches)
        np.testing.assert_array_equal(
            tree.dist, reference.dist,
            err_msg=f"dist diverged on backend {engine.name}",
        )
        g_final = copy.deepcopy(graph)
        for batch in batches:
            batch.apply_to(g_final)
        tree.certify(g_final)


@st.composite
def graph_and_mixed_batches(draw, max_n=12, max_batches=2):
    """A random digraph plus mixed insert/delete/re-weight batches,
    biased so some records hit live (often tree) edges."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    weight = st.integers(min_value=0, max_value=9).map(float)
    vertex = st.integers(0, n - 1)
    edge = st.tuples(vertex, vertex, st.tuples(weight))
    base = draw(st.lists(edge, min_size=0, max_size=3 * n))
    g = DiGraph(n, k=1)
    for u, v, w in base:
        g.add_edge(u, v, w)
    pair = st.tuples(vertex, vertex)
    if base:
        pair = st.one_of(
            st.sampled_from([(u, v) for u, v, _ in base]), pair
        )
    record = st.tuples(
        st.sampled_from([KIND_DELETE, KIND_INSERT, KIND_WEIGHT]),
        pair,
        weight,
    )
    batches = []
    for _ in range(draw(st.integers(1, max_batches))):
        records = draw(st.lists(record, min_size=1, max_size=8))
        batches.append(ChangeBatch(
            np.array([r[1][0] for r in records], dtype=np.int64),
            np.array([r[1][1] for r in records], dtype=np.int64),
            np.array([[r[2]] for r in records], dtype=np.float64),
            np.array([r[0] for r in records], dtype=np.int8),
        ))
    return g, batches


def _run_mixed(engine, graph, batches):
    """Play mixed batches through the CSR kernel path on ``engine``,
    keeping the snapshot in sync via incremental ``apply_batch``."""
    g = copy.deepcopy(graph)
    tree = SOSPTree.build(g, 0)
    snapshot = CSRGraph.from_digraph(g)
    for batch in batches:
        batch.apply_to(g)
        snapshot.apply_batch(batch)
        apply_mixed_batch(g, tree, batch, engine=engine,
                          csr=snapshot)
    return g, tree


@settings(max_examples=20, deadline=None)
@given(data=graph_and_mixed_batches())
def test_mixed_batches_identical_across_backends(data):
    graph, batches = data
    _, reference = _run_mixed(ENGINES[0], graph, batches)
    for engine in ENGINES[1:]:
        g_final, tree = _run_mixed(engine, graph, batches)
        np.testing.assert_array_equal(
            tree.dist, reference.dist,
            err_msg=f"mixed-batch dist diverged on backend {engine.name}",
        )
        tree.certify(g_final)


def test_shm_crash_recovery_matches_oracle(monkeypatch):
    """Kill a shm worker mid-repair (after it has poisoned its dist
    slab) and assert the transactional rollback + inline re-run still
    lands on the serial-oracle fixpoint.

    The crash kernel (``tests._shm_support.crash_then_propagate_slab``)
    dies only inside spawn pool workers; the recovery re-run resolves
    the same ref on the master, where it delegates to the real slab
    kernel.
    """
    g = DiGraph(8, k=1)
    for u, v, w in [
        (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0),
        (0, 5, 9.0), (5, 6, 1.0), (6, 7, 1.0), (4, 7, 1.0),
        (1, 5, 2.0), (2, 6, 2.0), (6, 3, 1.0),
    ]:
        g.add_edge(u, v, w)
    # two insertions whose targets (4 and 6) have *distinct*
    # out-neighbors, so the first repair wave fans out to >= 2 frontier
    # vertices: a single-item wave would run inline (one span) and
    # never reach the worker pool, so nothing would crash
    batch = ChangeBatch(
        np.array([1, 0, 0, 2], dtype=np.int64),
        np.array([2, 4, 6, 6], dtype=np.int64),
        np.array([[0.0], [3.0], [1.0], [1.5]], dtype=np.float64),
        np.array([KIND_DELETE, KIND_INSERT, KIND_INSERT, KIND_WEIGHT],
                 dtype=np.int8),
    )

    g_ref = copy.deepcopy(g)
    tree_ref = SOSPTree.build(g_ref, 0)
    batch.apply_to(g_ref)
    apply_mixed_batch(g_ref, tree_ref, batch)

    monkeypatch.setattr(
        kernels, "_PROPAGATE_SLAB_REF",
        "tests._shm_support:crash_then_propagate_slab",
    )
    monkeypatch.setattr(kernels, "MIN_SLAB_ITEMS", 1)
    engine = SharedMemoryEngine(threads=2, min_dispatch_items=1)
    try:
        tree = SOSPTree.build(g, 0)
        snapshot = CSRGraph.from_digraph(g)
        batch.apply_to(g)
        snapshot.apply_batch(batch)
        with pytest.warns(RuntimeWarning, match="died mid-superstep"):
            apply_mixed_batch(g, tree, batch, engine=engine,
                              csr=snapshot)
    finally:
        engine.close()
    np.testing.assert_array_equal(tree.dist, tree_ref.dist)
    tree.certify(g)


@settings(max_examples=8, deadline=None)
@given(data=graph_and_batches(k=2, max_n=10, max_batches=1))
def test_mosp_update_identical_across_backends(data):
    graph, batches = data
    results = []
    for engine in ENGINES:
        g = copy.deepcopy(graph)
        for batch in batches:
            batch.apply_to(g)
        trees = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
        r = mosp_update(g, trees, engine=engine)
        results.append(r.dist_vectors.copy())
    for engine, dv in zip(ENGINES[1:], results[1:]):
        np.testing.assert_array_equal(
            dv, results[0],
            err_msg=f"MOSP cost vectors diverged on backend {engine.name}",
        )
