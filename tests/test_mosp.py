"""Unit and oracle tests for the multi-objective substrate."""

import itertools

import networkx as nx
import numpy as np
import pytest

from repro.dynamic import ChangeBatch
from repro.dynamic.changes import KIND_DELETE, KIND_INSERT
from repro.errors import AlgorithmError
from repro.graph import CSRGraph, DiGraph, erdos_renyi, layered_dag
from repro.mosp import (
    Label,
    LabelSet,
    dominates,
    dominates_or_equal,
    front_distance,
    is_dominated_by_any,
    martins,
    pareto_filter,
)
from repro.mosp.dominance import pareto_filter as pf


class TestDominance:
    def test_strict_dominance(self):
        assert dominates((1, 2), (2, 3))
        assert dominates((1, 2), (1, 3))
        assert not dominates((1, 2), (1, 2))
        assert not dominates((2, 1), (1, 2))

    def test_paper_figure1_examples(self):
        # §2.1: {u3: (9,10)} is dominated by {u4: (8,10)}
        assert dominates((8, 10), (9, 10))
        # {u4: (14,8)} is dominated by {u2: (11,7)}
        assert dominates((11, 7), (14, 8))

    def test_weak_dominance(self):
        assert dominates_or_equal((1, 2), (1, 2))
        assert dominates_or_equal((1, 2), (2, 2))
        assert not dominates_or_equal((3, 1), (2, 2))

    def test_is_dominated_by_any(self):
        front = np.array([[1.0, 5.0], [5.0, 1.0]])
        assert is_dominated_by_any((2, 6), front)
        assert not is_dominated_by_any((0.5, 0.5), front)
        assert not is_dominated_by_any((1.0, 5.0), front)  # equal, not dominated
        assert not is_dominated_by_any((2, 4), front)

    def test_empty_front_dominates_nothing(self):
        assert not is_dominated_by_any((1, 1), np.empty((0, 2)))

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.uniform(0, 5, 2), rng.uniform(0, 5, 2)
            assert not (dominates(a, b) and dominates(b, a))

    def test_transitivity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b, c = rng.uniform(0, 5, (3, 3))
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)


class TestParetoFilter:
    def test_basic(self):
        pts = np.array([[1, 5], [5, 1], [3, 3], [4, 4], [2, 6]])
        f = pareto_filter(pts)
        assert sorted(map(tuple, f.tolist())) == [(1, 5), (3, 3), (5, 1)]

    def test_duplicates_kept_once(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 0.5]])
        f = pareto_filter(pts)
        assert len(f) == 2

    def test_empty(self):
        f = pareto_filter(np.empty((0, 2)))
        assert f.shape[0] == 0

    def test_mask_matches_filter(self):
        pts = np.array([[1, 5], [5, 1], [3, 3], [4, 4]])
        f, mask = pareto_filter(pts, return_mask=True)
        assert mask.tolist() == [True, True, True, False]

    def test_single_point(self):
        f = pareto_filter(np.array([[3.0, 4.0]]))
        assert f.tolist() == [[3.0, 4.0]]

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            pareto_filter(np.array([1.0, 2.0]))

    def test_agrees_with_bruteforce(self):
        rng = np.random.default_rng(2)
        for k in (2, 3):
            pts = rng.integers(0, 6, size=(40, k)).astype(float)
            f = {tuple(r) for r in pareto_filter(pts).tolist()}
            brute = {
                tuple(p)
                for p in pts.tolist()
                if not any(dominates(q, p) for q in pts.tolist())
            }
            assert f == brute


class TestLabelSet:
    def test_insert_and_prune(self):
        s = LabelSet()
        assert s.insert(Label(0, (2.0, 5.0)))
        assert not s.insert(Label(0, (3.0, 6.0)))
        assert s.insert(Label(0, (5.0, 1.0)))
        assert s.insert(Label(0, (1.0, 1.0)))  # dominates everything
        assert len(s) == 1
        assert s.front().tolist() == [[1.0, 1.0]]

    def test_equal_vector_rejected(self):
        s = LabelSet()
        s.insert(Label(0, (2.0, 2.0)))
        assert not s.insert(Label(0, (2.0, 2.0)))

    def test_would_accept(self):
        s = LabelSet()
        s.insert(Label(0, (2.0, 2.0)))
        assert s.would_accept((1.0, 3.0))
        assert not s.would_accept((3.0, 3.0))

    def test_label_path_reconstruction(self):
        a = Label(0, (0.0,))
        b = Label(1, (1.0,), parent=0, parent_label=a)
        c = Label(2, (2.0,), parent=1, parent_label=b)
        assert c.path() == [0, 1, 2]


def brute_force_fronts(g: DiGraph, source: int):
    """Enumerate all simple paths and Pareto-filter their costs."""
    h = nx.MultiDiGraph()
    h.add_nodes_from(range(g.num_vertices))
    for u, v, eid in g.edges():
        h.add_edge(u, v, weight=tuple(g.weight(eid)))
    fronts = {}
    k = g.num_objectives
    for v in range(g.num_vertices):
        costs = []
        if v == source:
            costs.append(tuple([0.0] * k))
        else:
            for path in nx.all_simple_paths(h, source, v):
                # expand parallel-edge choices along the path
                edge_opts = []
                for a, b in zip(path, path[1:]):
                    edge_opts.append(
                        [d["weight"] for d in h.get_edge_data(a, b).values()]
                    )
                for combo in itertools.product(*edge_opts):
                    costs.append(tuple(np.sum(np.asarray(combo), axis=0)))
        if costs:
            fronts[v] = {
                tuple(r) for r in pf(np.asarray(costs, dtype=float)).tolist()
            }
        else:
            fronts[v] = set()
    return fronts


class TestMartins:
    def test_parallel_edges_both_kept(self):
        g = DiGraph(2, k=2)
        g.add_edge(0, 1, (1.0, 10.0))
        g.add_edge(0, 1, (10.0, 1.0))
        r = martins(g, 0)
        assert sorted(map(tuple, r.front(1).tolist())) == [
            (1.0, 10.0),
            (10.0, 1.0),
        ]

    def test_maintained_csr_reads_like_its_digraph(self):
        """A CSR kept current with ``apply_batch`` (appended edges in
        spare slots, a tombstone) gives the digraph's fronts."""
        g = erdos_renyi(12, 30, k=2, seed=4)
        csr = CSRGraph.from_digraph(g)
        u, v, _ = next(iter(g.edges()))
        batch = ChangeBatch(
            np.array([0, 0, 3, u]), np.array([7, 9, 11, v]),
            np.array([[1.0, 9.0], [9.0, 1.0], [0.5, 0.5], [0.0, 0.0]]),
            np.array([KIND_INSERT, KIND_INSERT, KIND_INSERT, KIND_DELETE],
                     dtype=np.int8),
        )
        batch.apply_to(g)
        csr.apply_batch(batch)
        assert csr.num_dead == 1 and not csr.is_compact
        got, want = martins(csr, 0), martins(g, 0)
        for v in range(g.num_vertices):
            assert sorted(map(tuple, got.front(v).tolist())) == sorted(
                map(tuple, want.front(v).tolist())), f"vertex {v}"

    def test_dominated_path_pruned(self):
        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 1.0))
        g.add_edge(1, 2, (1.0, 1.0))
        g.add_edge(0, 2, (5.0, 5.0))  # dominated by the two-hop path
        r = martins(g, 0)
        assert r.front(2).tolist() == [[2.0, 2.0]]

    def test_source_front_is_zero(self):
        g = DiGraph(2, k=3)
        g.add_edge(0, 1, (1.0, 1.0, 1.0))
        r = martins(g, 0)
        assert r.front(0).tolist() == [[0.0, 0.0, 0.0]]

    def test_unreachable_empty(self):
        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 1.0))
        r = martins(g, 0)
        assert r.labels[2] == []
        assert r.front(2).size == 0

    def test_paths_consistent_with_labels(self):
        g = layered_dag(4, 3, k=2, seed=3)
        r = martins(g, 0)
        for v in range(g.num_vertices):
            for lab in r.labels[v]:
                path = lab.path()
                assert path[0] == 0 and path[-1] == v
                # each hop's distance increment must match some edge
                node = lab
                while node.parent_label is not None:
                    step = node.dist_array() - node.parent_label.dist_array()
                    opts = [
                        g.weight(eid)
                        for bb, eid in g.out_edges(node.parent)
                        if bb == node.vertex
                    ]
                    assert any(
                        np.allclose(step, w) for w in opts
                    ), f"hop ({node.parent}, {node.vertex}) has no matching edge"
                    node = node.parent_label

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_bruteforce_dag(self, seed):
        g = layered_dag(4, 3, k=2, seed=seed, fanout=2)
        r = martins(g, 0)
        ref = brute_force_fronts(g, 0)
        for v in range(g.num_vertices):
            got = {tuple(x) for x in r.front(v).tolist()} if r.labels[v] else set()
            assert got == ref[v], f"vertex {v}"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_against_bruteforce_cyclic(self, seed):
        g = erdos_renyi(8, 20, k=2, seed=seed)
        r = martins(g, 0)
        ref = brute_force_fronts(g, 0)
        for v in range(g.num_vertices):
            got = {tuple(x) for x in r.front(v).tolist()} if r.labels[v] else set()
            assert got == ref[v], f"vertex {v}"

    def test_three_objectives(self):
        g = erdos_renyi(7, 15, k=3, seed=4)
        r = martins(g, 0)
        ref = brute_force_fronts(g, 0)
        for v in range(g.num_vertices):
            got = {tuple(x) for x in r.front(v).tolist()} if r.labels[v] else set()
            assert got == ref[v]

    def test_max_labels_guard(self):
        g = layered_dag(5, 4, k=2, seed=0, fanout=4)
        with pytest.raises(AlgorithmError):
            martins(g, 0, max_labels=2)

    def test_counters_populated(self):
        g = erdos_renyi(10, 30, k=2, seed=0)
        r = martins(g, 0)
        assert r.pops >= 1 and r.inserts >= r.pops


class TestFrontUtilities:
    def test_front_distance_on_front(self):
        front = np.array([[1.0, 5.0], [5.0, 1.0]])
        assert front_distance((1.0, 5.0), front) == 0.0

    def test_front_distance_above_front(self):
        front = np.array([[10.0, 10.0]])
        assert front_distance((11.0, 10.0), front) == pytest.approx(0.1)

    def test_front_distance_incomparable_is_zero(self):
        front = np.array([[1.0, 5.0]])
        assert front_distance((2.0, 1.0), front) == 0.0

    def test_front_distance_empty_front(self):
        assert front_distance((1.0, 1.0), np.empty((0, 2))) == 0.0
