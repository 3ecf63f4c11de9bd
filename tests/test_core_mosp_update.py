"""Tests for Algorithm 2 (mosp_update): pipeline, theorems, quality."""

import numpy as np
import pytest

from repro.core import SOSPTree, mosp_update
from repro.dynamic import ChangeBatch, random_insert_batch
from repro.errors import AlgorithmError, NotReachableError
from repro.graph import DiGraph, erdos_renyi
from repro.mosp import martins, nondominated_against
from repro.parallel import SerialEngine, SimulatedEngine
from repro.sssp import dijkstra
from tests._mosp_reference import mosp_update_reference


def build_trees(g, source=0):
    return [SOSPTree.build(g, source, objective=i)
            for i in range(g.num_objectives)]


def path_cost(g, path):
    """True multi-objective cost of a vertex path (min parallel edge
    by lexicographic weight, matching _certified_weight)."""
    k = g.num_objectives
    cost = np.zeros(k)
    for u, v in zip(path, path[1:]):
        opts = sorted(
            tuple(g.weight(eid)) for vv, eid in g.out_edges(u) if vv == v
        )
        assert opts, f"missing edge ({u}, {v})"
        cost += np.asarray(opts[0])
    return cost


class TestPipelineBasics:
    def test_static_recombine_no_batch(self):
        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 4.0))
        g.add_edge(1, 2, (1.0, 4.0))
        g.add_edge(0, 2, (4.0, 1.0))
        trees = build_trees(g)
        r = mosp_update(g, trees)
        # both candidate paths are Pareto optimal; result must be one
        assert r.path_to(2) in ([0, 1, 2], [0, 2])
        np.testing.assert_allclose(r.cost_to(2), path_cost(g, r.path_to(2)))

    def test_dist_vectors_consistent_with_paths(self):
        g = erdos_renyi(30, 150, k=2, seed=0)
        trees = build_trees(g)
        r = mosp_update(g, trees)
        for v in range(g.num_vertices):
            if np.isfinite(r.dist_vectors[v]).all() and v != 0:
                p = r.path_to(v)
                np.testing.assert_allclose(
                    r.cost_to(v), path_cost(g, p), rtol=1e-9
                )

    def test_source_cost_zero(self):
        g = erdos_renyi(10, 40, k=2, seed=1)
        r = mosp_update(g, build_trees(g))
        assert r.cost_to(0).tolist() == [0.0, 0.0]

    def test_unreachable_vertex_raises(self):
        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 1.0))
        r = mosp_update(g, build_trees(g))
        with pytest.raises(NotReachableError):
            r.path_to(2)

    def test_reachability_matches_sosp(self):
        g = erdos_renyi(40, 120, k=2, seed=2)
        trees = build_trees(g)
        r = mosp_update(g, trees)
        d0, _ = dijkstra(g, 0, 0)
        finite = np.isfinite(r.dist_vectors).all(axis=1)
        np.testing.assert_array_equal(finite, np.isfinite(d0))

    def test_per_objective_cost_lower_bounded_by_sosp(self):
        # no path can beat the per-objective optimum
        g = erdos_renyi(40, 200, k=2, seed=3)
        trees = build_trees(g)
        r = mosp_update(g, trees)
        for i in range(2):
            di, _ = dijkstra(g, 0, i)
            reach = np.isfinite(di)
            assert np.all(r.dist_vectors[reach, i] >= di[reach] - 1e-9)


class TestWithBatch:
    @pytest.mark.parametrize("engine", [
        None, SerialEngine(),
        # the multi-thread slot: three virtual threads, many slabs
        pytest.param(SimulatedEngine(threads=3), id="threads"),
        SimulatedEngine(threads=4),
    ], ids=lambda e: getattr(e, "name", "default"))
    def test_update_then_recombine(self, engine):
        g = erdos_renyi(50, 200, k=2, seed=4)
        trees = build_trees(g)
        batch = random_insert_batch(g, 60, seed=5)
        batch.apply_to(g)
        r = mosp_update(g, trees, batch, engine=engine)
        # step 1 must leave each tree a correct SSSP solution
        for i, t in enumerate(trees):
            ref, _ = dijkstra(g, 0, i)
            np.testing.assert_allclose(t.dist, ref, rtol=1e-9)
        assert len(r.update_stats) == 2
        # and the MOSP costs must be real path costs
        for v in range(g.num_vertices):
            if np.isfinite(r.dist_vectors[v]).all() and v != 0:
                np.testing.assert_allclose(
                    r.cost_to(v), path_cost(g, r.path_to(v)), rtol=1e-9
                )

    def test_step_timers_populated(self):
        g = erdos_renyi(30, 120, k=2, seed=6)
        trees = build_trees(g)
        batch = random_insert_batch(g, 30, seed=7)
        batch.apply_to(g)
        r = mosp_update(g, trees, batch)
        assert set(r.step_seconds) == {
            "sosp_update_0", "sosp_update_1", "ensemble",
            "bellman_ford", "reassign",
        }
        assert all(v >= 0 for v in r.step_seconds.values())

    def test_virtual_timers_with_simulated_engine(self):
        g = erdos_renyi(30, 120, k=2, seed=6)
        trees = build_trees(g)
        batch = random_insert_batch(g, 30, seed=7)
        batch.apply_to(g)
        eng = SimulatedEngine(threads=4)
        r = mosp_update(g, trees, batch, engine=eng)
        assert set(r.step_virtual_seconds) == set(r.step_seconds)
        assert sum(r.step_virtual_seconds.values()) <= eng.virtual_time + 1e-12


class TestStatsEmission:
    """Every Step-1 tree update emits stats exactly once: one
    ``mosp_tree_updates_total`` increment and at most one
    ``update_stats`` entry per tree."""

    def _counted(self, fn):
        from repro.obs import use_metrics

        with use_metrics() as reg:
            r = fn()
        snap = reg.snapshot()
        return r, snap.get("mosp_tree_updates_total", 0.0)

    def test_insert_batch_exactly_once_per_tree(self):
        g = erdos_renyi(40, 160, k=2, seed=20)
        trees = build_trees(g)
        batch = random_insert_batch(g, 30, seed=21)
        batch.apply_to(g)
        r, count = self._counted(lambda: mosp_update(g, trees, batch))
        assert count == 2.0
        assert len(r.update_stats) == 2

    def test_mixed_batch_exactly_once_per_tree(self):
        g = erdos_renyi(40, 200, k=2, seed=22)
        trees = build_trees(g)
        edges = list(g.edges())
        dels = [(u, v) for u, v, _ in edges[:5]]
        batch = ChangeBatch.concat(
            ChangeBatch.deletions(dels, k=2),
            random_insert_batch(g, 20, seed=23),
        )
        batch.apply_to(g)
        r, count = self._counted(lambda: mosp_update(g, trees, batch))
        assert count == 2.0
        # the fully dynamic path appends at most one stats per tree
        assert len(r.update_stats) <= 2

    def test_no_batch_emits_nothing(self):
        g = erdos_renyi(20, 80, k=2, seed=24)
        trees = build_trees(g)
        r, count = self._counted(lambda: mosp_update(g, trees))
        assert count == 0.0
        assert r.update_stats == []


class TestTheorems:
    def test_theorem1_unique_trees_pareto_optimal(self):
        """Theorem 3 construction: unique SOSP trees => the heuristic's
        path is Pareto optimal (checked against Martins' full front)."""
        rng = np.random.default_rng(8)
        for trial in range(10):
            # random weights with distinct sums make ties (and thus
            # non-unique trees) measure-zero
            g = erdos_renyi(12, 40, k=2, seed=trial + 100)
            trees = build_trees(g)
            r = mosp_update(g, trees)
            full = martins(g, 0)
            for v in range(g.num_vertices):
                if not np.isfinite(r.dist_vectors[v]).all():
                    continue
                front = full.front(v)
                assert nondominated_against(r.cost_to(v), front), (
                    f"trial {trial} vertex {v}: {r.cost_to(v)} dominated "
                    f"by front {front}"
                )

    def test_balanced_weighting_prefers_shared_edges(self):
        """Step 2's k-x+1 weighting: an edge in both trees must be
        chosen over two single-tree edges of the same hop count."""
        g = DiGraph(4, k=2)
        # two routes 0->3: via 1 (shared optimal for both objectives)
        # and via 2 (optimal for neither... but in tree for neither)
        g.add_edge(0, 1, (1.0, 1.0))
        g.add_edge(1, 3, (1.0, 1.0))
        g.add_edge(0, 2, (5.0, 5.0))
        g.add_edge(2, 3, (5.0, 5.0))
        trees = build_trees(g)
        r = mosp_update(g, trees)
        assert r.path_to(3) == [0, 1, 3]

    def test_priority_weighting_steers_path(self):
        """Prioritising objective 1 must pick objective 1's optimum."""
        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 9.0))
        g.add_edge(1, 2, (1.0, 9.0))
        g.add_edge(0, 2, (9.0, 1.0))
        trees = build_trees(g)
        r_fast = mosp_update(g, trees, weighting="priority",
                             priorities=(100.0, 1.0))
        assert r_fast.path_to(2) == [0, 1, 2]
        r_lean = mosp_update(g, trees, weighting="priority",
                             priorities=(1.0, 100.0))
        assert r_lean.path_to(2) == [0, 2]


class TestValidation:
    def test_tree_count_mismatch_rejected(self):
        g = erdos_renyi(10, 30, k=2, seed=0)
        with pytest.raises(AlgorithmError):
            mosp_update(g, [SOSPTree.build(g, 0, objective=0)])

    def test_tree_order_enforced(self):
        g = erdos_renyi(10, 30, k=2, seed=0)
        trees = build_trees(g)
        with pytest.raises(AlgorithmError):
            mosp_update(g, trees[::-1])

    def test_no_trees_rejected(self):
        g = erdos_renyi(10, 30, k=2, seed=0)
        with pytest.raises(AlgorithmError):
            mosp_update(g, [])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_priority_rejected(self, bad):
        """A NaN priority used to drop reachable vertices to ``inf``
        rows and an infinite one to give zero-weight combined edges;
        both must be refused up front."""
        g = DiGraph(3, k=2)
        g.add_edge(0, 1, (1.0, 4.0))
        g.add_edge(1, 2, (1.0, 4.0))
        g.add_edge(0, 2, (4.0, 1.0))
        with pytest.raises(AlgorithmError, match="finite positive"):
            mosp_update(g, build_trees(g), weighting="priority",
                        priorities=(bad, 1.0))
        with pytest.raises(AlgorithmError, match="finite positive"):
            mosp_update_reference(g, build_trees(g), weighting="priority",
                                  priorities=(bad, 1.0))


class TestCSRKernelPath:
    """The CSR kernel pipeline is a drop-in replacement for the
    reference pipeline (``tests/_mosp_reference.py``): same MOSP
    output, same timing surface."""

    def test_kernel_path_matches_reference(self):
        """Everything uniquely determined must match exactly: per-tree
        SOSP distances, the ensemble graph, and the set of reachable
        vertices.  Combined-graph parents are tie-broken differently by
        the pull-based kernel, so MOSP vectors are checked for path
        realism (cost == real weight of the reported path) rather than
        compared entrywise against the reference."""
        import copy

        g = erdos_renyi(50, 200, k=2, seed=4)
        trees_ref = build_trees(g)
        trees_csr = copy.deepcopy(trees_ref)
        batch = random_insert_batch(g, 60, seed=5)
        batch.apply_to(g)
        ref = mosp_update_reference(g, trees_ref, batch)
        fast = mosp_update(g, trees_csr, batch)
        for t_r, t_c in zip(trees_ref, trees_csr):
            np.testing.assert_array_equal(t_c.dist, t_r.dist)
            t_c.certify(g)
        assert fast.ensemble.occurrences == ref.ensemble.occurrences
        fin_fast = np.isfinite(fast.dist_vectors).all(axis=1)
        fin_ref = np.isfinite(ref.dist_vectors).all(axis=1)
        np.testing.assert_array_equal(fin_fast, fin_ref)
        for v in np.flatnonzero(fin_fast):
            v = int(v)
            if v != 0:
                np.testing.assert_allclose(
                    fast.cost_to(v), path_cost(g, fast.path_to(v)),
                    rtol=1e-9,
                )

    def test_kernel_path_step_timers(self):
        """The kernel path reports the exact same per-step timing keys
        (Figure 6 depends on this surface staying stable)."""
        g = erdos_renyi(30, 120, k=2, seed=6)
        trees = build_trees(g)
        batch = random_insert_batch(g, 30, seed=7)
        batch.apply_to(g)
        r = mosp_update(g, trees, batch)
        assert set(r.step_seconds) == {
            "sosp_update_0", "sosp_update_1", "ensemble",
            "bellman_ford", "reassign",
        }
        assert all(v >= 0 for v in r.step_seconds.values())
        # per-tree Algorithm-1 stats expose the kernel sub-step timers
        for stats in r.update_stats:
            assert set(stats.step_seconds) == {"step1", "step2"}

    def test_kernel_path_with_maintained_snapshot(self):
        from repro.graph.csr import CSRGraph

        g = erdos_renyi(40, 160, k=2, seed=8)
        trees = build_trees(g)
        snapshot = CSRGraph.from_digraph(g)
        for seed in (11, 12, 13):
            batch = random_insert_batch(g, 25, seed=seed)
            batch.apply_to(g)
            snapshot.apply_batch(batch)
            r = mosp_update(snapshot, trees, batch)
            for i, t in enumerate(trees):
                ref, _ = dijkstra(g, 0, i)
                np.testing.assert_allclose(t.dist, ref, rtol=1e-9)
        assert snapshot.num_edges == g.num_edges
