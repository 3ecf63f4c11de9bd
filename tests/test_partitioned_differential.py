"""Cross-partition differential-oracle matrix (partitioned engine).

Every cell of (shards ∈ {2, 3, 4}) × (inner pool ∈ {serial, shm}) ×
(update ∈ {sosp, mosp, mixed}) must land on the **identical** distance
fixpoint as the serial reference and the single-pool shared-memory
backend — bitwise, because every relaxation is a monotone ``min`` over
the same float64 path sums regardless of how the waves are sliced into
shard-local supersteps.  Parent pointers may tie-break differently
across partition counts (the exchange reorders equally optimal waves),
so parents are certified against the graph (equal path *cost*) rather
than compared pointwise.

One shm cell runs with real worker dispatch (``threads=2,
min_dispatch_items=1``); the rest run the shared-memory pools inline
(``threads=1``) — same planting/mirroring machinery, no spawn cost per
example.  Engines are module-scoped, like the single-pool differential
suite: the partitioned plan cache and pool reuse across examples is
itself part of what's being certified.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import SOSPTree, apply_mixed_batch, mosp_update, sosp_update
from repro.graph.csr import CSRGraph
from repro.parallel import PartitionedEngine, SharedMemoryEngine
from tests.test_engines_differential import (
    graph_and_batches,
    graph_and_mixed_batches,
)
from tests.test_fully_dynamic_mixed import assert_matches_dijkstra

pytestmark = pytest.mark.slow

ENGINES = [
    PartitionedEngine(threads=1, partitions=2, inner="serial"),
    PartitionedEngine(threads=1, partitions=3, inner="serial"),
    PartitionedEngine(threads=1, partitions=4, inner="serial"),
    PartitionedEngine(threads=2, partitions=2, inner="shm",
                      inner_options={"min_dispatch_items": 1}),
    PartitionedEngine(threads=1, partitions=3, inner="shm"),
    PartitionedEngine(threads=1, partitions=4, inner="shm"),
    # the single-pool shm backend the ISSUE matrix pins as a co-oracle
    SharedMemoryEngine(threads=2, min_dispatch_items=1),
]


def _label(engine) -> str:
    if isinstance(engine, PartitionedEngine):
        return f"partitioned[{engine.partitions}x{engine.inner}]"
    return engine.name


def teardown_module(module) -> None:
    for e in ENGINES:
        closer = getattr(e, "close", None)
        if callable(closer):
            closer()


def _run_sosp(engine, graph, batches):
    g = copy.deepcopy(graph)
    tree = SOSPTree.build(g, 0)
    snapshot = CSRGraph.from_digraph(g)
    for batch in batches:
        batch.apply_to(g)
        snapshot.append_batch(batch)
        sosp_update(g, tree, batch, engine=engine,
                    csr=snapshot)
    return g, tree


def _run_mixed(engine, graph, batches):
    g = copy.deepcopy(graph)
    tree = SOSPTree.build(g, 0)
    snapshot = CSRGraph.from_digraph(g)
    for batch in batches:
        batch.apply_to(g)
        snapshot.apply_batch(batch)
        apply_mixed_batch(g, tree, batch, engine=engine,
                          csr=snapshot)
    return g, tree


@settings(max_examples=15, deadline=None)
@given(data=graph_and_batches())
def test_sosp_matrix_equals_serial_oracle(data):
    graph, batches = data
    _, reference = _run_sosp(None, graph, batches)
    for engine in ENGINES:
        g_final, tree = _run_sosp(engine, graph, batches)
        np.testing.assert_array_equal(
            tree.dist, reference.dist,
            err_msg=f"sosp dist diverged on {_label(engine)}",
        )
        tree.certify(g_final)


@settings(max_examples=15, deadline=None)
@given(data=graph_and_mixed_batches())
def test_mixed_matrix_equals_serial_oracle(data):
    graph, batches = data
    _, reference = _run_mixed(None, graph, batches)
    for engine in ENGINES:
        g_final, tree = _run_mixed(engine, graph, batches)
        np.testing.assert_array_equal(
            tree.dist, reference.dist,
            err_msg=f"mixed dist diverged on {_label(engine)}",
        )
        tree.certify(g_final)
    # the serial reference itself is pinned to a from-scratch Dijkstra
    assert_matches_dijkstra(_run_mixed(None, graph, batches)[0], reference)


@settings(max_examples=8, deadline=None)
@given(data=graph_and_batches(k=2, max_n=10, max_batches=1))
def test_mosp_matrix_equals_serial_oracle(data):
    """MOSP with a live batch: Step 1 runs once per objective through
    the partitioned driver (sharing one snapshot), and both the
    per-objective distance fixpoints and the combined cost vectors must
    agree bitwise with serial on every cell."""
    graph, batch = data[0], data[1][0]
    runs = []
    for engine in [None] + ENGINES:
        g = copy.deepcopy(graph)
        trees = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
        snapshot = CSRGraph.from_digraph(g)
        batch.apply_to(g)
        snapshot.append_batch(batch)
        r = mosp_update(g, trees, batch, engine=engine,
                        csr=snapshot)
        for t in trees:
            t.certify(g)
        runs.append((engine, trees, r.dist_vectors.copy()))
    _, ref_trees, ref_dv = runs[0]
    for engine, trees, dv in runs[1:]:
        for i, (t, ref) in enumerate(zip(trees, ref_trees)):
            np.testing.assert_array_equal(
                t.dist, ref.dist,
                err_msg=f"objective {i} dist diverged on {_label(engine)}",
            )
        np.testing.assert_array_equal(
            dv, ref_dv,
            err_msg=f"MOSP cost vectors diverged on {_label(engine)}",
        )


@settings(max_examples=10, deadline=None)
@given(data=graph_and_mixed_batches())
def test_own_snapshot_path_equals_serial_oracle(data):
    """``csr=None``: the engine maintains its own incremental snapshot
    (and shard plan) across a batch sequence."""
    graph, batches = data
    _, reference = _run_mixed(None, graph, batches)
    engine = PartitionedEngine(threads=1, partitions=3, inner="serial")
    try:
        g = copy.deepcopy(graph)
        tree = SOSPTree.build(g, 0)
        for batch in batches:
            batch.apply_to(g)
            apply_mixed_batch(g, tree, batch, engine=engine)
        np.testing.assert_array_equal(tree.dist, reference.dist)
        tree.certify(g)
    finally:
        engine.close()


@settings(max_examples=10, deadline=None)
@given(data=graph_and_mixed_batches())
def test_edgecut_refined_partition_equals_serial_oracle(data):
    """The greedy min-edgecut partitioner changes the shard shapes,
    never the fixpoint."""
    graph, batches = data
    _, reference = _run_mixed(None, graph, batches)
    engine = PartitionedEngine(
        threads=1, partitions=3, inner="serial", partition_mode="edgecut"
    )
    try:
        g_final, tree = _run_mixed(engine, graph, batches)
        np.testing.assert_array_equal(tree.dist, reference.dist)
        tree.certify(g_final)
    finally:
        engine.close()
