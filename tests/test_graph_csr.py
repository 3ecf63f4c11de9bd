"""Unit tests for repro.graph.csr.CSRGraph."""

import numpy as np
import pytest

from repro.dynamic import ChangeBatch
from repro.errors import GraphError, VertexError, WeightError
from repro.graph import CSRGraph, DiGraph
from repro.graph.generators import erdos_renyi, grid_road
from repro.graph.validation import validate_csr


@pytest.fixture
def diamond_csr():
    g = DiGraph(4, k=2)
    g.add_edge(0, 1, (1.0, 10.0))
    g.add_edge(0, 2, (2.0, 20.0))
    g.add_edge(1, 3, (3.0, 30.0))
    g.add_edge(2, 3, (4.0, 40.0))
    return CSRGraph.from_digraph(g)


class TestConstruction:
    def test_shapes(self, diamond_csr):
        c = diamond_csr
        assert c.n == 4 and c.m == 4 and c.k == 2
        assert c.indptr.shape == (5,)
        assert c.indices.shape == (4,)
        assert c.weights.shape == (4, 2)

    def test_empty(self):
        c = CSRGraph(3, np.empty(0, np.int64), np.empty(0, np.int64),
                     np.empty((0, 1)))
        assert c.m == 0
        assert c.out_neighbors(0).size == 0
        assert c.in_neighbors(2).size == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(2, np.array([0]), np.array([1, 0]), np.array([[1.0]]))

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexError):
            CSRGraph(2, np.array([0]), np.array([5]), np.array([[1.0]]))

    def test_1d_weights_promoted(self):
        c = CSRGraph(2, np.array([0]), np.array([1]), np.array([3.0]))
        assert c.k == 1
        assert c.weights.shape == (1, 1)


class TestAdjacency:
    def test_out_neighbors(self, diamond_csr):
        assert sorted(diamond_csr.out_neighbors(0).tolist()) == [1, 2]
        assert diamond_csr.out_neighbors(3).size == 0

    def test_in_neighbors(self, diamond_csr):
        assert sorted(diamond_csr.in_neighbors(3).tolist()) == [1, 2]
        assert diamond_csr.in_neighbors(0).size == 0

    def test_out_weights_aligned(self, diamond_csr):
        nbrs = diamond_csr.out_neighbors(0).tolist()
        ws = diamond_csr.out_weights(0).tolist()
        pairs = dict(zip(nbrs, ws))
        assert pairs == {1: 1.0, 2: 2.0}

    def test_in_weights_aligned(self, diamond_csr):
        nbrs = diamond_csr.in_neighbors(3).tolist()
        ws = diamond_csr.in_weights(3).tolist()
        pairs = dict(zip(nbrs, ws))
        assert pairs == {1: 3.0, 2: 4.0}

    def test_in_weight_vectors(self, diamond_csr):
        nbrs = diamond_csr.in_neighbors(3).tolist()
        wvs = diamond_csr.in_weight_vectors(3)
        pairs = {n: tuple(w) for n, w in zip(nbrs, wvs.tolist())}
        assert pairs == {1: (3.0, 30.0), 2: (4.0, 40.0)}

    def test_degrees(self, diamond_csr):
        assert diamond_csr.out_degree(0) == 2
        assert diamond_csr.in_degree(3) == 2
        assert diamond_csr.average_degree() == 1.0

    def test_edges_iteration(self, diamond_csr):
        edges = {(u, v) for u, v, _ in diamond_csr.edges()}
        assert edges == {(0, 1), (0, 2), (1, 3), (2, 3)}


class TestRoundTrips:
    def test_to_digraph_roundtrip(self, diamond_csr):
        g = diamond_csr.to_digraph()
        c2 = CSRGraph.from_digraph(g)
        assert c2.m == diamond_csr.m
        assert sorted(zip(c2.src.tolist(), c2.indices.tolist())) == sorted(
            zip(diamond_csr.src.tolist(), diamond_csr.indices.tolist())
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graph_validates(self, seed):
        g = erdos_renyi(50, 200, seed=seed)
        c = CSRGraph.from_digraph(g)
        validate_csr(c)

    def test_grid_road_validates(self):
        g = grid_road(8, 9, seed=3)
        validate_csr(CSRGraph.from_digraph(g))

    def test_tombstoned_edges_excluded(self):
        g = DiGraph(3)
        g.add_edge(0, 1, 1.0)
        dead = g.add_edge(1, 2, 1.0)
        g.remove_edge_id(dead)
        c = CSRGraph.from_digraph(g)
        assert c.m == 1
        assert c.out_neighbors(1).size == 0

    def test_parallel_edges_preserved(self):
        g = DiGraph(2)
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 1, 2.0)
        c = CSRGraph.from_digraph(g)
        assert c.m == 2
        assert c.out_neighbors(0).tolist() == [1, 1]
        assert sorted(c.out_weights(0).tolist()) == [1.0, 2.0]
        assert sorted(c.in_weights(1).tolist()) == [1.0, 2.0]


class TestSnapshotIdentity:
    """Duplicated snapshots must not inherit the original's uid: a
    pickle/deepcopy clone sharing ``(uid, version)`` fingerprints would
    let a shared-memory engine skip re-planting and run kernels on
    stale planted data."""

    def test_pickle_roundtrip_reassigns_uid(self, diamond_csr):
        import pickle

        clone = pickle.loads(pickle.dumps(diamond_csr))
        assert clone.uid != diamond_csr.uid
        assert clone.topology_stamp != diamond_csr.topology_stamp
        assert clone.weights_stamp != diamond_csr.weights_stamp
        assert clone.stamp != diamond_csr.stamp
        # contents and behaviour survive the round trip
        np.testing.assert_array_equal(clone.indptr, diamond_csr.indptr)
        np.testing.assert_array_equal(clone.indices, diamond_csr.indices)
        np.testing.assert_array_equal(clone.weights, diamond_csr.weights)
        assert clone.in_neighbors(3).tolist() == \
            diamond_csr.in_neighbors(3).tolist()

    def test_deepcopy_reassigns_uid(self, diamond_csr):
        import copy

        clone = copy.deepcopy(diamond_csr)
        assert clone.stamp != diamond_csr.stamp
        # the clones diverge independently afterwards
        clone.apply_batch(ChangeBatch.insertions([(3, 0, (1.0, 1.0))]))
        assert diamond_csr.num_tail_edges == 0
        assert clone.num_tail_edges == 1


def _maintained():
    """A snapshot with spare slots, appended parallel edges and a
    tombstone: ``(0, 1)`` twice in the base, ``(1, 2)`` twice
    appended, ``(2, 0)`` deleted."""
    c = CSRGraph(3, np.array([0, 0, 2]), np.array([1, 1, 0]),
                 np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
    c.apply_batch(ChangeBatch.insertions([(1, 2, (4.0, 4.0)),
                                          (1, 2, (5.0, 5.0))]))
    c.apply_batch(ChangeBatch.deletions([(2, 0)], k=2))
    validate_csr(c)
    return c


def _first_in(c, v):
    return int(c.rev_indptr[v])


CORRUPTIONS = {
    "live range past its region": (
        lambda c: c.out_end.__setitem__(0, c.indptr[1] + 1), GraphError),
    "slot owned by another vertex": (
        lambda c: c.src.__setitem__(int(c.indptr[1]), 0), GraphError),
    "reverse tail changed": (
        lambda c: c.rev_indices.__setitem__(_first_in(c, 1), 2), GraphError),
    "edge_perm into spare room": (
        lambda c: c.edge_perm.__setitem__(_first_in(c, 2),
                                          int(c.out_end[1])), GraphError),
    "edge_perm twice to one slot": (
        lambda c: c.edge_perm.__setitem__(_first_in(c, 2) + 1,
                                          c.edge_perm[_first_in(c, 2)]),
        GraphError),
    "negative live weight": (
        lambda c: c.weights.__setitem__((int(c.indptr[1]), 1), -1.0),
        WeightError),
    "half a tombstone": (
        lambda c: c.weights.__setitem__((int(c.indptr[2]), 1), 3.0),
        GraphError),
    "dead count off": (
        lambda c: setattr(c, "num_dead", 0), GraphError),
}


class TestValidateCSR:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_a_corrupted_layout_is_refused(self, name):
        corrupt, error = CORRUPTIONS[name]
        c = _maintained()
        corrupt(c)
        with pytest.raises(error):
            validate_csr(c)
