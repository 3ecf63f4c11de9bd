"""Tests for the 'Probable Optimization' (IncrementalMOSP)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IncrementalMOSP, SOSPTree, mosp_update
from repro.dynamic import ChangeBatch, ChangeStream, random_insert_batch
from repro.errors import AlgorithmError
from repro.graph import CSRGraph, DiGraph, erdos_renyi, grid_road
from repro.parallel import SimulatedEngine
from repro.sssp import dijkstra, frontier_bellman_ford


def build_inc(g, source=0, **kw):
    """``IncrementalMOSP`` over a CSR frozen from ``g``; ``g`` stays as
    the generators' replica and the oracles' graph."""
    return IncrementalMOSP(CSRGraph.from_digraph(g), source, **kw)


def advance(inc, g, batch):
    """Apply ``batch`` to the replica and to the CSR ``inc`` reads."""
    batch.apply_to(g)
    inc.graph.apply_batch(batch)
    return inc.update(batch)


def assert_warm_state_correct(inc, g):
    """The warm ensemble tree must be a correct SSSP solution of the
    warm ensemble graph, and the per-objective trees must be exact."""
    inc.ensemble_tree.certify(inc.ensemble_graph)
    for i, t in enumerate(inc.trees):
        ref, _ = dijkstra(g, inc.source, i)
        np.testing.assert_allclose(t.dist, ref, rtol=1e-9)


class TestBootstrap:
    def test_initial_state_matches_from_scratch(self):
        g = erdos_renyi(30, 120, k=2, seed=0)
        inc = build_inc(g)
        assert_warm_state_correct(inc, g)
        # scalar ensemble distances match a fresh Bellman-Ford
        dist, _ = frontier_bellman_ford(inc.ensemble_graph, 0)
        np.testing.assert_allclose(inc.ensemble_tree.dist, dist)

    def test_result_without_batch(self):
        g = erdos_renyi(20, 80, k=2, seed=1)
        inc = build_inc(g)
        r = inc.result()
        fresh = mosp_update(
            g, [SOSPTree.build(g, 0, objective=i) for i in range(2)]
        )
        # identical reachability; identical scalar optima imply the
        # same ensemble tree distances
        np.testing.assert_array_equal(
            np.isfinite(r.dist_vectors).all(axis=1),
            np.isfinite(fresh.dist_vectors).all(axis=1),
        )


class TestSingleUpdate:
    def test_shortcut_switches_path(self):
        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 2.0))
        g.add_edge(1, 2, (1.0, 2.0))
        inc = build_inc(g)
        assert inc.result().path_to(2) == [0, 1, 2]
        batch = ChangeBatch.insertions([(0, 2, (1.5, 1.5))])
        r = advance(inc, g, batch)
        assert r.path_to(2) == [0, 2]
        assert_warm_state_correct(inc, g)

    def test_ensemble_distances_match_recompute(self):
        g = erdos_renyi(40, 160, k=2, seed=3)
        inc = build_inc(g)
        advance(inc, g, random_insert_batch(g, 30, seed=4))
        dist, _ = frontier_bellman_ford(inc.ensemble_graph, 0)
        np.testing.assert_allclose(inc.ensemble_tree.dist, dist, rtol=1e-9)
        assert_warm_state_correct(inc, g)

    def test_step_timers_present(self):
        g = erdos_renyi(20, 80, k=2, seed=5)
        inc = build_inc(g, engine=SimulatedEngine(threads=4))
        r = advance(inc, g, random_insert_batch(g, 10, seed=6))
        assert set(r.step_seconds) == {
            "sosp_update_0", "sosp_update_1", "ensemble",
            "bellman_ford", "reassign",
        }
        assert set(r.step_virtual_seconds) == set(r.step_seconds)

    def test_costs_are_real_path_costs(self):
        g = erdos_renyi(30, 120, k=2, seed=7)
        inc = build_inc(g)
        r = advance(inc, g, random_insert_batch(g, 20, seed=8))
        for v in range(g.num_vertices):
            if not np.isfinite(r.dist_vectors[v]).all() or v == 0:
                continue
            path = r.path_to(v)
            cost = np.zeros(2)
            for a, b in zip(path, path[1:]):
                opts = sorted(
                    tuple(g.weight(eid))
                    for bb, eid in g.out_edges(a) if bb == b
                )
                cost += np.asarray(opts[0])
            np.testing.assert_allclose(r.cost_to(v), cost, rtol=1e-9)


class TestStream:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_many_steps_stay_correct(self, seed):
        g = grid_road(6, 6, k=2, seed=seed)
        inc = build_inc(g)
        stream = ChangeStream(g, batch_size=8, steps=5, seed=seed + 10)
        for batch in stream.batches():
            advance(inc, g, batch)
            assert_warm_state_correct(inc, g)

    def test_matches_fresh_pipeline_each_step(self):
        g = erdos_renyi(25, 100, k=2, seed=9)
        g2 = g.copy()
        inc = build_inc(g)
        fresh_trees = [SOSPTree.build(g2, 0, objective=i) for i in range(2)]
        rng_batches = [random_insert_batch(g, 12, seed=s) for s in (1, 2, 3)]
        for batch in rng_batches:
            batch.apply_to(g2)
            advance(inc, g, batch)
            r_fresh = mosp_update(g2, fresh_trees, batch)
            # same ensemble (same trees) => same scalar tree distances
            dist_fresh, _ = frontier_bellman_ford(r_fresh.ensemble.csr, 0)
            np.testing.assert_allclose(
                inc.ensemble_tree.dist, dist_fresh, rtol=1e-9
            )


class TestValidation:
    def test_digraph_is_refused(self):
        # frozen here and then mutated by the caller, a DiGraph would
        # desynchronise silently
        with pytest.raises(AlgorithmError, match="CSRGraph"):
            IncrementalMOSP(erdos_renyi(10, 40, k=2, seed=0), 0)

    def test_update_never_refreezes_the_graph(self, monkeypatch):
        g = erdos_renyi(20, 80, k=2, seed=2)
        inc = build_inc(g)
        frozen = []
        freeze = CSRGraph.from_digraph

        def record(graph):
            frozen.append(graph)
            return freeze(graph)

        monkeypatch.setattr(CSRGraph, "from_digraph", record)
        advance(inc, g, random_insert_batch(g, 10, seed=3))
        # the warm ensemble DiGraph is still frozen per update; the
        # input graph never is
        assert frozen and all(f is inc.ensemble_graph for f in frozen)
        assert_warm_state_correct(inc, g)


class TestPropertyStream:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 10_000))
    def test_random_streams_certified(self, seed):
        g = erdos_renyi(12, 40, k=2, seed=seed % 97)
        inc = build_inc(g)
        rng_seed = seed
        for step in range(3):
            advance(inc, g, random_insert_batch(g, 5, seed=rng_seed + step))
        assert_warm_state_correct(inc, g)
