"""Tests for incremental full-Pareto-front maintenance."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dynamic import ChangeBatch, random_insert_batch
from repro.errors import AlgorithmError
from repro.graph import DiGraph, erdos_renyi
from repro.mosp import martins
from repro.mosp.dynamic_front import DynamicParetoFront
from repro.parallel import SerialEngine, SimulatedEngine


def fronts_equal(dpf, graph, source):
    ref = martins(graph, source)
    for v in range(graph.num_vertices):
        got = sorted(map(tuple, np.round(dpf.front(v), 9).tolist())) \
            if len(dpf.labels(v)) else []
        want = sorted(map(tuple, np.round(ref.front(v), 9).tolist())) \
            if ref.labels[v] else []
        assert got == want, f"vertex {v}: {got} != {want}"


class TestBasics:
    def test_initial_state_matches_martins(self):
        g = erdos_renyi(15, 60, k=2, seed=0)
        dpf = DynamicParetoFront(g, 0)
        fronts_equal(dpf, g, 0)

    def test_single_improving_insert(self):
        g = DiGraph(2, k=2)
        g.add_edge(0, 1, (5.0, 5.0))
        dpf = DynamicParetoFront(g, 0)
        batch = ChangeBatch.insertions([(0, 1, (1.0, 9.0))])
        batch.apply_to(g)
        dpf.update(batch)
        assert sorted(map(tuple, dpf.front(1).tolist())) == [
            (1.0, 9.0), (5.0, 5.0)
        ]

    def test_dominating_insert_evicts(self):
        g = DiGraph(2, k=2)
        g.add_edge(0, 1, (5.0, 5.0))
        dpf = DynamicParetoFront(g, 0)
        batch = ChangeBatch.insertions([(0, 1, (1.0, 1.0))])
        batch.apply_to(g)
        dpf.update(batch)
        assert dpf.front(1).tolist() == [[1.0, 1.0]]

    def test_noop_insert(self):
        g = DiGraph(2, k=2)
        g.add_edge(0, 1, (1.0, 1.0))
        dpf = DynamicParetoFront(g, 0)
        batch = ChangeBatch.insertions([(0, 1, (9.0, 9.0))])
        batch.apply_to(g)
        stats = dpf.update(batch)
        assert stats.accepted == 0
        assert dpf.front(1).tolist() == [[1.0, 1.0]]

    def test_connects_new_region(self):
        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 1.0))
        dpf = DynamicParetoFront(g, 0)
        assert dpf.front(2).size == 0
        batch = ChangeBatch.insertions([(1, 2, (2.0, 3.0))])
        batch.apply_to(g)
        dpf.update(batch)
        assert dpf.front(2).tolist() == [[3.0, 4.0]]

    def test_self_loop_ignored(self):
        g = DiGraph(2, k=2)
        g.add_edge(0, 1, (1.0, 1.0))
        dpf = DynamicParetoFront(g, 0)
        batch = ChangeBatch.insertions([(1, 1, (0.5, 0.5))])
        batch.apply_to(g)
        dpf.update(batch)
        fronts_equal(dpf, g, 0)

    def test_unknown_mode_rejected(self):
        g = erdos_renyi(5, 15, k=2, seed=1)
        dpf = DynamicParetoFront(g, 0)
        with pytest.raises(AlgorithmError):
            dpf.update(ChangeBatch.insertions([]), mode="annealing")

    def test_paths_valid(self):
        g = erdos_renyi(12, 50, k=2, seed=2)
        dpf = DynamicParetoFront(g, 0)
        batch = random_insert_batch(g, 10, seed=3)
        batch.apply_to(g)
        dpf.update(batch)
        for v in range(12):
            for lab, path in zip(dpf.labels(v), dpf.paths(v)):
                assert path[0] == 0 and path[-1] == v


@pytest.mark.parametrize("engine", [
    None, SerialEngine(),
    # the multi-thread slot: three virtual threads
    pytest.param(SimulatedEngine(threads=3), id="threads"),
    SimulatedEngine(threads=4),
], ids=lambda e: getattr(e, "name", "default"))
class TestEngines:
    def test_batch_update_matches_recompute(self, engine):
        g = erdos_renyi(15, 60, k=2, seed=4)
        dpf = DynamicParetoFront(g, 0, engine=engine)
        batch = random_insert_batch(g, 15, seed=5)
        batch.apply_to(g)
        stats = dpf.update(batch)
        fronts_equal(dpf, g, 0)
        assert stats.candidates >= stats.accepted


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_multiple_batches(self, seed):
        g = erdos_renyi(12, 40, k=2, seed=seed)
        dpf = DynamicParetoFront(g, 0)
        for step in range(3):
            batch = random_insert_batch(g, 8, seed=10 * seed + step)
            batch.apply_to(g)
            dpf.update(batch)
            fronts_equal(dpf, g, 0)

    def test_three_objectives(self):
        g = erdos_renyi(10, 35, k=3, seed=6)
        dpf = DynamicParetoFront(g, 0)
        batch = random_insert_batch(g, 10, seed=7)
        batch.apply_to(g)
        dpf.update(batch)
        fronts_equal(dpf, g, 0)


class TestDeletions:
    def test_delete_unique_path_empties_front(self):
        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 1.0))
        g.add_edge(1, 2, (1.0, 1.0))
        dpf = DynamicParetoFront(g, 0)
        batch = ChangeBatch.deletions([(1, 2)], k=2)
        batch.apply_to(g)
        stats = dpf.update(batch)
        assert dpf.front(2).size == 0
        assert stats.invalidated >= 1
        fronts_equal(dpf, g, 0)

    def test_delete_promotes_dominated_path(self):
        # the cheap route dominated the expensive one; deleting the
        # cheap route must resurrect the expensive one
        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 1.0))
        g.add_edge(1, 2, (1.0, 1.0))   # cheap: (2, 2)
        g.add_edge(0, 2, (5.0, 5.0))   # dominated direct edge
        dpf = DynamicParetoFront(g, 0)
        assert dpf.front(2).tolist() == [[2.0, 2.0]]
        batch = ChangeBatch.deletions([(1, 2)], k=2)
        batch.apply_to(g)
        dpf.update(batch)
        assert dpf.front(2).tolist() == [[5.0, 5.0]]
        fronts_equal(dpf, g, 0)

    def test_delete_nonused_edge_noop(self):
        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 1.0))
        g.add_edge(1, 2, (1.0, 1.0))
        g.add_edge(0, 2, (9.0, 9.0))  # dominated, never a label hop
        dpf = DynamicParetoFront(g, 0)
        batch = ChangeBatch.deletions([(0, 2)], k=2)
        batch.apply_to(g)
        stats = dpf.update(batch)
        assert stats.invalidated == 0
        fronts_equal(dpf, g, 0)

    def test_parallel_edge_survivor_keeps_label(self):
        g = DiGraph(2, k=2)
        g.add_edge(0, 1, (3.0, 3.0))
        g.add_edge(0, 1, (3.0, 3.0))  # identical twin
        dpf = DynamicParetoFront(g, 0)
        batch = ChangeBatch.deletions([(0, 1)], k=2)
        batch.apply_to(g)
        dpf.update(batch)
        assert dpf.front(1).tolist() == [[3.0, 3.0]]
        fronts_equal(dpf, g, 0)

    def test_cascading_invalidation(self):
        # a chain: deleting the first hop invalidates everything below
        g = DiGraph(5, k=2)
        for i in range(4):
            g.add_edge(i, i + 1, (1.0, 1.0))
        dpf = DynamicParetoFront(g, 0)
        batch = ChangeBatch.deletions([(0, 1)], k=2)
        batch.apply_to(g)
        stats = dpf.update(batch)
        assert stats.invalidated == 4
        for v in range(1, 5):
            assert dpf.front(v).size == 0
        fronts_equal(dpf, g, 0)

    def test_descendants_of_evicted_ancestors_found(self):
        """The hop-index regression case: an ancestor label is evicted
        by a later insertion, its descendant survives; deleting the
        ancestor's hop must still invalidate the descendant."""
        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (5.0, 5.0))   # original hop (gets evicted)
        g.add_edge(1, 2, (1.0, 1.0))
        dpf = DynamicParetoFront(g, 0)
        # insertion evicts the (5,5) label at vertex 1...
        ins = ChangeBatch.insertions([(0, 1, (1.0, 1.0))])
        ins.apply_to(g)
        dpf.update(ins)
        fronts_equal(dpf, g, 0)
        # ...now delete the NEW hop: the surviving front must fall back
        dele = ChangeBatch.deletions([(0, 1)], k=2)
        dele.apply_to(g)  # removes the (1,1) parallel edge (cheapest)
        dpf.update(dele)
        fronts_equal(dpf, g, 0)
        assert dpf.front(2).tolist() == [[6.0, 6.0]]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_deletion_batches(self, seed):
        from repro.dynamic import random_delete_batch

        g = erdos_renyi(12, 50, k=2, seed=seed)
        dpf = DynamicParetoFront(g, 0)
        batch = random_delete_batch(g, 10, seed=seed + 20)
        batch.apply_to(g)
        dpf.update(batch)
        fronts_equal(dpf, g, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_batches(self, seed):
        from repro.dynamic import random_mixed_batch

        g = erdos_renyi(12, 60, k=2, seed=seed)
        dpf = DynamicParetoFront(g, 0)
        for step in range(3):
            batch = random_mixed_batch(g, 10, insert_fraction=0.5,
                                       seed=seed * 7 + step)
            batch.apply_to(g)
            dpf.update(batch)
            fronts_equal(dpf, g, 0)


class TestProperty:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 10_000))
    def test_random_streams(self, seed):
        g = erdos_renyi(8, 25, k=2, seed=seed % 83)
        dpf = DynamicParetoFront(g, 0)
        for step in range(2):
            batch = random_insert_batch(g, 5, seed=seed + step)
            batch.apply_to(g)
            dpf.update(batch)
        fronts_equal(dpf, g, 0)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 10_000))
    def test_fully_dynamic_streams(self, seed):
        from repro.dynamic import random_mixed_batch

        g = erdos_renyi(8, 30, k=2, seed=seed % 89)
        dpf = DynamicParetoFront(g, 0)
        for step in range(2):
            batch = random_mixed_batch(g, 6, insert_fraction=0.5,
                                       seed=seed + 31 * step)
            batch.apply_to(g)
            dpf.update(batch)
            fronts_equal(dpf, g, 0)
