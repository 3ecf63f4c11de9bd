"""Differential oracle for Algorithm 2's real-weight reassignment.

The array kernel (``_reassign_real_weights``: one compare over each
reached vertex's live reverse range, then level-by-level accumulation
down the combined tree) must reproduce the per-vertex distance-order
walk kept in ``tests/_mosp_reference.py`` *bitwise*: same parents in,
identical ``dist_vectors`` bytes out — over random multigraphs, every
weighting scheme, k = 1..3, maintained CSRs with appended edges and
tombstones after mixed batches (one batch, and a stream of them), and
trees as deep as the graph.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import SOSPTree, mosp_update
from repro.core.ensemble import ensemble_bellman_ford
from repro.dynamic import random_mixed_batch
from repro.errors import AlgorithmError
from repro.graph import DiGraph, erdos_renyi
from repro.dynamic import ChangeBatch
from repro.graph.csr import CSRGraph
from repro.types import DIST_DTYPE, INF, NO_PARENT
from tests._mosp_reference import (
    build_ensemble_reference,
    live_edge_arrays,
    reassign_real_weights,
)
from tests.test_properties import SETTINGS, graph_and_batches

# ``repro.core.mosp_update`` is re-exported as the function; the module
# holding the private kernel must be imported by its dotted name
mosp_mod = importlib.import_module("repro.core.mosp_update")

PRIORITIES = {1: (1.0,), 2: (3.0, 1.0), 3: (3.0, 1.0, 7.0)}


def build_trees(g, source=0):
    return [SOSPTree.build(g, source, objective=i)
            for i in range(g.num_objectives)]


def reference_vectors(g, source, dist_c, parent_c, trees):
    out = np.full((g.num_vertices, g.num_objectives), INF, dtype=DIST_DTYPE)
    reassign_real_weights(g, source, dist_c, parent_c, out, trees)
    return out


def kernel_vectors(graph, g, source, dist_c, parent_c, trees):
    """The library kernel reading ``graph`` (a ``CSRGraph`` of ``g``;
    a ``DiGraph`` is frozen first)."""
    if isinstance(graph, DiGraph):
        graph = CSRGraph.from_digraph(graph)
    out = np.full((g.num_vertices, g.num_objectives), INF, dtype=DIST_DTYPE)
    mosp_mod._reassign_real_weights(graph, source, dist_c, parent_c, out,
                                    trees)
    return out


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes(), np.argwhere(a != b)[:5]


def assert_matches_reference(r, g, trees):
    """Re-run Step 3 on the result's ensemble (deterministic, so the
    parents must come back equal), then price the same combined tree
    with the reference walk: the pipeline's vectors must be its bytes."""
    dist_c, parent_c = ensemble_bellman_ford(r.ensemble, r.source)
    np.testing.assert_array_equal(parent_c, r.parent)
    assert_bitwise(r.dist_vectors,
                   reference_vectors(g, r.source, dist_c, parent_c, trees))


@st.composite
def multigraph_and_batches(draw, k):
    """``graph_and_batches`` plus extra parallel copies of some edges
    with fresh weights, so hops with several live parallels occur."""
    g, batches = draw(graph_and_batches(k=k, max_n=10, max_batches=2))
    live = list(g.edges())
    if live:
        picks = draw(st.lists(st.sampled_from(live), max_size=6))
        weight = st.integers(min_value=0, max_value=9).map(float)
        for u, v, _eid in picks:
            g.add_edge(u, v, draw(st.tuples(*([weight] * k))))
    return g, batches


# ----------------------------------------------------------------------
# pipeline-level: random multigraphs, every scheme, k = 1..3
# ----------------------------------------------------------------------


class TestPipelineMatchesReference:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @SETTINGS
    @given(data=st.data())
    def test_random_multigraphs(self, k, data):
        g, batches = data.draw(multigraph_and_batches(k))
        weighting = data.draw(st.sampled_from(["balanced", "priority",
                                               "unit"]))
        maintained = data.draw(st.booleans())
        prio = PRIORITIES[k] if weighting == "priority" else None
        trees = build_trees(g)
        # maintained: the update reads a CSR kept current batch by
        # batch; otherwise it freezes the DiGraph on entry
        snapshot = CSRGraph.from_digraph(g) if maintained else None
        for batch in batches:
            batch.apply_to(g)
            if snapshot is not None:
                snapshot.apply_batch(batch)
            r = mosp_update(g if snapshot is None else snapshot, trees,
                            batch, weighting=weighting, priorities=prio)
            assert_matches_reference(r, g, trees)

    def test_priority_weights_are_not_integers(self):
        g = erdos_renyi(60, 300, k=3, seed=21)
        trees = build_trees(g)
        r = mosp_update(g, trees, weighting="priority",
                        priorities=PRIORITIES[3])
        w = r.ensemble.csr.weights[:, 0]
        assert not np.all(w == np.round(w))
        assert_matches_reference(r, g, trees)

    def test_snapshot_with_tail_and_tombstones(self):
        """A maintained snapshot (appended edges in spare slots, dead
        rows among base and appended ones) prices the tree exactly as a
        fresh freeze of the digraph."""
        g = erdos_renyi(80, 400, k=2, seed=22)
        trees = build_trees(g)
        snapshot = CSRGraph.from_digraph(g)
        batch = random_mixed_batch(g, 40, insert_fraction=0.5, seed=23,
                                   weight_change_fraction=0.25)
        batch.apply_to(g)
        snapshot.apply_batch(batch)
        # appended edges and tombstones share the live ranges; spare
        # slots remain
        assert snapshot.num_tail_edges and snapshot.num_dead
        assert snapshot.m > snapshot.num_edges + snapshot.num_dead
        r = mosp_update(snapshot, trees, batch)
        assert_matches_reference(r, g, trees)
        # the snapshot mirrors g: the same live edge multiset
        src, dst, w = live_edge_arrays(snapshot)
        assert sorted(zip(src.tolist(), dst.tolist(), map(tuple, w.tolist()))) \
            == sorted((u, v, tuple(g.weight(e).tolist()))
                      for u, v, e in g.edges())
        dist_c, parent_c = ensemble_bellman_ford(r.ensemble, 0)
        from_csr = kernel_vectors(snapshot, g, 0, dist_c, parent_c, trees)
        from_graph = kernel_vectors(g, g, 0, dist_c, parent_c, trees)
        assert_bitwise(from_csr, from_graph)

    def test_unreachable_vertices_stay_inf(self):
        g = erdos_renyi(40, 60, k=2, seed=24)
        g.add_vertices(5)  # isolated
        trees = build_trees(g)
        r = mosp_update(g, trees)
        unreached = ~np.isfinite(r.dist_vectors).all(axis=1)
        assert unreached[-5:].all()
        assert np.isinf(r.dist_vectors[unreached]).all()
        assert_matches_reference(r, g, trees)

    def test_maintained_csr_mixed_stream(self):
        """Mixed batches applied to one CSR kept current with
        ``apply_batch``: after every batch the pipeline's vectors are
        the reference walk's bytes."""
        g = erdos_renyi(60, 240, k=2, seed=25)
        csr = CSRGraph.from_digraph(g)
        trees = build_trees(g)
        for seed in (26, 27, 28):
            batch = random_mixed_batch(g, 20, insert_fraction=0.5,
                                       seed=seed, weight_change_fraction=0.25)
            batch.apply_to(g)
            csr.apply_batch(batch)
            r = mosp_update(csr, trees, batch)
            assert_matches_reference(r, g, trees)
        # read in place all along: appended edges and tombstones in the
        # live ranges, never compacted
        assert csr.num_tail_edges and csr.num_dead and not csr.is_compact


# ----------------------------------------------------------------------
# kernel-level: hand-built combined trees
# ----------------------------------------------------------------------


class TestKernelCases:
    def test_trees_certify_different_parallels(self):
        """Tree 0 certifies parallel (1, 9), tree 1 certifies (9, 1):
        the hop takes the lexicographically smaller certified edge —
        never the uncertified (5, 5), never an element-wise min."""
        g = DiGraph(2, k=2)
        g.add_edge(0, 1, (9.0, 1.0))
        g.add_edge(0, 1, (5.0, 5.0))
        g.add_edge(0, 1, (1.0, 9.0))
        trees = build_trees(g)
        dist_c = np.array([0.0, 1.0])
        parent_c = np.array([NO_PARENT, 0])
        out = kernel_vectors(g, g, 0, dist_c, parent_c, trees)
        assert out[1].tolist() == [1.0, 9.0]
        assert_bitwise(out, reference_vectors(g, 0, dist_c, parent_c, trees))

    def test_only_the_owning_tree_certifies(self):
        """Only tree 1 routes vertex 2 through vertex 0, so the hop
        (0, 2) is priced with tree 1's parallel (4, 1) although (1, 4)
        is lexicographically smaller."""
        g = DiGraph(3, k=2)
        g.add_edge(0, 2, (1.0, 4.0))
        g.add_edge(0, 2, (4.0, 1.0))
        g.add_edge(0, 1, (0.0, 9.0))
        g.add_edge(1, 2, (0.0, 9.0))
        trees = build_trees(g)
        assert trees[0].parent[2] == 1 and trees[1].parent[2] == 0
        dist_c = np.array([0.0, 1.0, 1.0])
        parent_c = np.array([NO_PARENT, 0, 0])
        out = kernel_vectors(g, g, 0, dist_c, parent_c, trees)
        assert out[2].tolist() == [4.0, 1.0]
        assert_bitwise(out, reference_vectors(g, 0, dist_c, parent_c, trees))

    @staticmethod
    def _hop_graph(base, tail):
        """A 2-vertex multigraph of parallel ``(0, 1)`` edges: ``base``
        weights frozen into the snapshot, ``tail`` ones appended to
        vertex 0's live range afterwards.  Returns ``(g, snapshot)``."""
        g = DiGraph(2, k=2)
        for w in base:
            g.add_edge(0, 1, w)
        snapshot = CSRGraph.from_digraph(g)
        if tail:
            batch = ChangeBatch.insertions([(0, 1, w) for w in tail])
            batch.apply_to(g)
            snapshot.apply_batch(batch)
        # vertex 0's live range: the base rows, then the appended ones
        assert snapshot.out_neighbors(0).tolist() == [1] * (len(base) + len(tail))
        np.testing.assert_array_equal(
            snapshot.weights[snapshot.indptr[0]:snapshot.out_end[0]],
            np.array(base + tail).reshape(-1, 2),
        )
        assert snapshot.num_tail_edges == len(tail)
        return g, snapshot

    @pytest.mark.parametrize("dead", ["base", "tail"])
    @pytest.mark.parametrize("alive", ["base", "tail"])
    def test_tombstoned_lexmin_row_with_a_live_parallel(self, dead, alive):
        """The deletion tombstones the lexicographically smallest
        parallel (an ``inf`` row left in place); the hop must be priced
        with the live one, wherever each row sits."""
        rows_by_side = {"base": [], "tail": []}
        rows_by_side[dead].append((1.0, 1.0))
        rows_by_side[alive].append((2.0, 3.0))
        g, snapshot = self._hop_graph(rows_by_side["base"],
                                      rows_by_side["tail"])
        batch = ChangeBatch.deletions([(0, 1)], k=2)
        batch.apply_to(g)
        snapshot.apply_batch(batch)
        rows = snapshot.weights[snapshot.indptr[0]:snapshot.out_end[0]]
        # the tombstone stays in place, base rows first
        assert np.isinf(rows).all(axis=1).tolist() == [
            w == (1.0, 1.0) for w in rows_by_side["base"] + rows_by_side["tail"]
        ]
        trees = build_trees(g)
        dist_c = np.array([0.0, 1.0])
        parent_c = np.array([NO_PARENT, 0])
        out = kernel_vectors(snapshot, g, 0, dist_c, parent_c, trees)
        assert out[1].tolist() == [2.0, 3.0]
        assert_bitwise(out, reference_vectors(g, 0, dist_c, parent_c, trees))

    @pytest.mark.parametrize("winner", ["base", "tail"])
    def test_parallels_split_across_base_and_tail(self, winner):
        """Tree 0 certifies (1, 9), tree 1 certifies (5, 5), one row in
        the base and one in the tail: the hop takes the lexicographically
        smaller certified edge, (1, 9), from whichever side holds it."""
        loser = "tail" if winner == "base" else "base"
        rows = {winner: [(1.0, 9.0)], loser: [(5.0, 5.0)]}
        g, snapshot = self._hop_graph(rows["base"], rows["tail"])
        trees = build_trees(g)
        dist_c = np.array([0.0, 1.0])
        parent_c = np.array([NO_PARENT, 0])
        out = kernel_vectors(snapshot, g, 0, dist_c, parent_c, trees)
        assert out[1].tolist() == [1.0, 9.0]
        assert_bitwise(out, reference_vectors(g, 0, dist_c, parent_c, trees))

    def test_long_path_one_level_per_vertex(self):
        """A path graph makes the level count equal n - 1."""
        n = 400
        rng = np.random.default_rng(29)
        g = DiGraph(n, k=3)
        for v in range(1, n):
            g.add_edge(v - 1, v, rng.uniform(0.1, 10.0, 3))
        trees = build_trees(g)
        r = mosp_update(g, trees)
        assert r.path_to(n - 1) == list(range(n))
        assert_matches_reference(r, g, trees)

    def test_missing_hop_edge_raises(self):
        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 1.0))
        dist_c = np.array([0.0, 1.0, 2.0])
        parent_c = np.array([NO_PARENT, 0, 1])  # (1, 2) is not an edge
        with pytest.raises(AlgorithmError, match=r"\(1, 2\)"):
            kernel_vectors(g, g, 0, dist_c, parent_c, None)
        with pytest.raises(AlgorithmError, match=r"\(1, 2\)"):
            reference_vectors(g, 0, dist_c, parent_c, None)

    @pytest.mark.parametrize("where", ["base", "tail"])
    def test_tombstoned_hop_edge_is_missing(self, where):
        """A hop whose only row is a tombstone raises like an absent
        edge, whether the dead row sits in the base or the tail."""
        rows = [(1.0, 1.0)]
        g, snapshot = self._hop_graph(rows if where == "base" else [],
                                      rows if where == "tail" else [])
        batch = ChangeBatch.deletions([(0, 1)], k=2)
        batch.apply_to(g)
        snapshot.apply_batch(batch)
        assert snapshot.num_dead == 1
        dist_c = np.array([0.0, 1.0])
        parent_c = np.array([NO_PARENT, 0])
        with pytest.raises(AlgorithmError, match=r"\(0, 1\)"):
            kernel_vectors(snapshot, g, 0, dist_c, parent_c, None)
        with pytest.raises(AlgorithmError, match=r"\(0, 1\)"):
            reference_vectors(g, 0, dist_c, parent_c, None)

    def test_broken_parent_chain_stays_inf(self):
        """A finite-distance vertex whose parent was never reached
        keeps ``inf``, exactly as in the walk."""
        g = DiGraph(4, k=1)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        dist_c = np.array([0.0, 1.0, INF, 2.0])
        parent_c = np.array([NO_PARENT, 0, NO_PARENT, 2])
        out = kernel_vectors(g, g, 0, dist_c, parent_c, None)
        assert np.isinf(out[2:]).all()
        assert_bitwise(out, reference_vectors(g, 0, dist_c, parent_c, None))


class TestEnsembleCounts:
    def test_lazy_occurrences_match_count_arrays(self):
        g = erdos_renyi(40, 160, k=3, seed=30)
        trees = build_trees(g)
        fast = mosp_update(g, trees).ensemble
        loop = build_ensemble_reference(trees)
        assert "occurrences" not in vars(fast)  # not built on the hot path
        assert fast.occurrences == loop.occurrences
        assert sum(fast.occurrences.values()) == int(fast.edge_count.sum())
