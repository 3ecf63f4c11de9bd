"""Differential oracle certifying the vectorised CSR kernels.

Three implementations of the same mathematical object are available for
every update:

1. the pointer-chasing reference twin (``tests/_sosp_reference.py``,
   ``tests/_mosp_reference.py``),
2. the batched CSR kernels the library runs, and
3. a from-scratch Dijkstra recompute on the updated graph.

All three must agree **exactly** (the label-correcting fixpoint is
unique, and every path uses the same float64 additions), over random
graphs, random insertion batches, and every engine family — that
agreement is what lets the kernels stand as the only update path.
Parent arrays are certified structurally via :meth:`SOSPTree.certify`
rather than compared entrywise, because equal-weight parallel edges
admit multiple valid witness parents.

Example budget comes from the hypothesis profile registered in
``conftest.py`` (200 locally, capped under ``HYPOTHESIS_PROFILE=ci``).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import SOSPTree, mosp_update, sosp_update
from repro.dynamic import ChangeBatch
from repro.graph import DiGraph
from repro.graph.csr import CSRGraph
from repro.parallel import SerialEngine, SimulatedEngine
from repro.sssp import dijkstra
from repro.types import NO_PARENT
from tests._mosp_reference import build_ensemble_reference, mosp_update_reference
from tests._sosp_reference import sosp_update_reference

pytestmark = pytest.mark.slow

#: One-slab and many-slab engines (a simulated engine cuts every
#: superstep into up to 256 slabs).  Shared instances: engines hold no
#: cross-call state that affects results.
ENGINES = [
    SerialEngine(),
    SimulatedEngine(threads=2),
    SimulatedEngine(threads=4),
]


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


@given(data=graph_and_batches(), engine_idx=st.integers(0, len(ENGINES) - 1))
def test_sosp_kernels_equal_reference_and_dijkstra(data, engine_idx):
    """CSR path ≡ reference path ≡ Dijkstra recompute, per batch."""
    g, batches = data
    engine = ENGINES[engine_idx]
    t_ref = SOSPTree.build(g, 0)
    t_csr = copy.deepcopy(t_ref)
    for batch in batches:
        batch.apply_to(g)
        sosp_update_reference(g, t_ref, batch, engine=engine)
        sosp_update(CSRGraph.from_digraph(g), t_csr, batch, engine=engine)
        oracle, _ = dijkstra(g, 0)
        np.testing.assert_array_equal(t_csr.dist, oracle)
        np.testing.assert_array_equal(t_ref.dist, oracle)
        t_csr.certify(g)


@given(data=graph_and_batches(max_batches=4),
       engine_idx=st.integers(0, len(ENGINES) - 1))
def test_sosp_kernels_with_incremental_snapshot(data, engine_idx):
    """A snapshot with appended edges is as good as a fresh freeze.

    One ``CSRGraph`` maintained with ``apply_batch`` across the whole
    batch sequence (never explicitly compacted) must drive the kernels
    to the same fixpoint as a from-scratch recompute after every batch.
    """
    g, batches = data
    engine = ENGINES[engine_idx]
    tree = SOSPTree.build(g, 0)
    snapshot = CSRGraph.from_digraph(g)
    for batch in batches:
        batch.apply_to(g)
        snapshot.apply_batch(batch)
        sosp_update(snapshot, tree, batch, engine=engine)
        oracle, _ = dijkstra(g, 0)
        np.testing.assert_array_equal(tree.dist, oracle)
        tree.certify(g)
    assert snapshot.num_edges == g.num_edges


def certify_combined_parents(result):
    """Every finite vertex's parent must be a real combined-graph edge
    that achieves the vertex's exact combined-graph distance.

    This is the sound Step-3 invariant: combined-graph *distances* are
    a unique fixpoint, but the witness parent is not — the push-based
    reference kernel keeps the first arrival among equally short
    parents while the library's slot-matrix kernel takes the
    smallest-id tight parent.  Certifying optimality (rather than
    comparing parents entrywise) accepts every valid tie-break and
    nothing else.
    """
    csr = result.ensemble.csr
    dist_c, _ = dijkstra(csr, result.source)
    for v in range(csr.n):
        p = int(result.parent[v])
        if v == result.source or p == NO_PARENT:
            continue
        preds = csr.in_neighbors(v).tolist()
        assert p in preds, (v, p)
        w = min(
            wt for u, wt in zip(preds, csr.in_weights(v).tolist()) if u == p
        )
        assert dist_c[p] + w == dist_c[v], (v, p)
    return dist_c


@given(data=graph_and_batches(k=2, max_n=12, max_batches=2),
       engine_idx=st.integers(0, len(ENGINES) - 1))
def test_mosp_kernels_equal_reference(data, engine_idx):
    """Algorithm 2 with kernels ≡ Algorithm 2 without.

    Exact equality holds for everything uniquely determined: per-tree
    SOSP distances, the vectorised-vs-loop ensemble build *on the same
    trees* (byte-identical CSR arrays and occurrence counts), and the
    set of reachable vertices.  Witness parents are NOT unique — on a
    tie, Step 1/2 kernels and the reference relaxation may keep
    different (equally optimal) tree parents, so the two pipelines'
    ensembles can legitimately differ edge-for-edge.  Parents are
    therefore certified optimal instead of compared entrywise, and
    each reported MOSP cost vector must be the true multi-weight of
    the reported path.
    """
    g, batches = data
    engine = ENGINES[engine_idx]
    trees_ref = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
    trees_csr = copy.deepcopy(trees_ref)
    for batch in batches:
        batch.apply_to(g)
        ref = mosp_update_reference(g, trees_ref, batch, engine=engine)
        fast = mosp_update(g, trees_csr, batch, engine=engine)
        assert set(fast.step_seconds) == set(ref.step_seconds)
        for t_r, t_c in zip(trees_ref, trees_csr):
            np.testing.assert_array_equal(t_c.dist, t_r.dist)
            t_c.certify(g)
        # differential for the vectorised ensemble builder: identical
        # input trees must produce a byte-identical combined graph
        loop = build_ensemble_reference(trees_csr, engine=engine)
        assert fast.ensemble.occurrences == loop.occurrences
        for attr in ("indptr", "indices", "src", "rev_indptr",
                     "rev_indices", "edge_perm"):
            np.testing.assert_array_equal(
                getattr(fast.ensemble.csr, attr),
                getattr(loop.csr, attr),
            )
        np.testing.assert_array_equal(
            fast.ensemble.csr.weights, loop.csr.weights
        )
        certify_combined_parents(fast)
        certify_combined_parents(ref)
        # both paths agree on which vertices have a MOSP at all, and
        # each reported vector is the real cost of the reported path:
        # on a simple hop the pricing is forced (exact check); where
        # parallel (a, b) edges exist the pipeline prices the hop with
        # the tree-certified parallel edge, so the vector must be
        # achievable by *some* per-hop choice among the real edges
        fin_fast = np.isfinite(fast.dist_vectors).all(axis=1)
        fin_ref = np.isfinite(ref.dist_vectors).all(axis=1)
        np.testing.assert_array_equal(fin_fast, fin_ref)
        for v in np.flatnonzero(fin_fast):
            v = int(v)
            if v == fast.source:
                continue
            path = fast.path_to(v)
            achievable = {(0.0,) * 2}
            for a, b in zip(path, path[1:]):
                hops = {
                    tuple(g.weight(eid)) for vv, eid in g.out_edges(a)
                    if vv == b
                }
                assert hops, (a, b)
                achievable = {
                    tuple(np.asarray(acc) + np.asarray(h))
                    for acc in achievable for h in hops
                }
            vec = fast.dist_vectors[v]
            assert any(np.allclose(vec, c) for c in achievable), (v, vec)
