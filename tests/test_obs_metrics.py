"""Metrics registry semantics and the algorithm publish sites."""

import numpy as np
import pytest

from repro.core import SOSPTree, mosp_update, sosp_update
from repro.dynamic import ChangeBatch, random_insert_batch
from repro.errors import ReproError
from repro.graph import DiGraph, road_like
from repro.obs import (
    MetricsRegistry,
    get_metrics,
    use_metrics,
)
from repro.obs.metrics import percentile


class TestMetricKinds:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("c", "help text")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ReproError):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in [5, 1, 3, 2, 4]:
            h.observe(v)
        s = h.summary()
        assert s["count"] == 5 and s["sum"] == 15
        assert s["min"] == 1 and s["max"] == 5
        assert s["p50"] == 3
        assert reg.histogram("h") is h  # cached instance

    def test_empty_histogram_summary(self):
        assert MetricsRegistry().histogram("h").summary() == {
            "count": 0.0, "sum": 0.0,
        }

    def test_percentile_nearest_rank(self):
        vals = list(map(float, range(1, 101)))
        assert percentile(vals, 0.5) == 51.0
        assert percentile(vals, 0.95) == 95.0
        assert percentile([7.0], 0.95) == 7.0
        with pytest.raises(ReproError):
            percentile([], 0.5)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ReproError, match="already registered"):
            reg.gauge("x")

    def test_disabled_registry_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("c")
        c.inc(10)
        reg.gauge("g").set(5)
        reg.histogram("h").observe(1)
        assert reg.snapshot() == {"c": 0.0, "g": 0.0,
                                  "h": {"count": 0.0, "sum": 0.0}}

    def test_snapshot_reset_len(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("b").set(7)
        assert len(reg) == 2
        assert reg.snapshot() == {"a": 2.0, "b": 7.0}
        reg.reset()
        assert len(reg) == 0


class TestGlobalRegistry:
    def test_default_registry_disabled(self):
        assert get_metrics().enabled is False

    def test_use_metrics_installs_and_restores(self):
        before = get_metrics()
        with use_metrics() as reg:
            assert get_metrics() is reg and reg.enabled
            reg.counter("seen").inc()
        assert get_metrics() is before
        assert reg.snapshot()["seen"] == 1.0


class TestAlgorithmPublishSites:
    def _graph_and_batch(self, seed=0):
        g = road_like(300, k=1, seed=seed)
        tree = SOSPTree.build(g, 0)
        batch = random_insert_batch(g, 25, seed=seed + 1)
        batch.apply_to(g)
        return g, tree, batch

    def test_sosp_update_publishes_once(self):
        g, tree, batch = self._graph_and_batch()
        with use_metrics() as reg:
            stats = sosp_update(g, tree, batch)
        snap = reg.snapshot()
        assert snap["sosp_updates_total"] == 1.0
        assert snap["sosp_relaxations_total"] == float(stats.relaxations)
        assert snap["sosp_step1_passes_total"] == float(stats.step1_passes)
        assert snap["sosp_batch_size"]["count"] == 1.0
        assert snap["sosp_frontier_size"]["count"] == float(
            len(stats.frontier_sizes)
        )

    def test_disabled_registry_costs_no_metrics(self):
        g, tree, batch = self._graph_and_batch()
        sosp_update(g, tree, batch)  # default registry: disabled
        assert len(get_metrics()) == 0

    def test_mosp_tree_update_counter_exactly_once_per_tree(self):
        g = road_like(200, k=2, seed=3)
        trees = [SOSPTree.build(g, 0, objective=i) for i in range(2)]
        batch = random_insert_batch(g, 20, seed=4)
        batch.apply_to(g)
        with use_metrics() as reg:
            r = mosp_update(g, trees, batch)
        assert reg.snapshot()["mosp_tree_updates_total"] == 2.0
        assert len(r.update_stats) == 2

    def test_deletion_metrics_published(self):
        g = DiGraph(4, k=1)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(0, 3, 5.0)
        g.add_edge(3, 2, 5.0)
        tree = SOSPTree.build(g, 0)
        batch = ChangeBatch.deletions([(1, 2)], k=1)
        batch.apply_to(g)
        with use_metrics() as reg:
            sosp_update(g, tree, batch)
        snap = reg.snapshot()
        assert snap["sosp_invalidated_total"] >= 1.0
        assert snap["sosp_step2_iterations"]["count"] == 1.0
        assert np.isclose(tree.dist[2], 10.0)

    def test_front_update_metrics_published(self):
        from repro.mosp.dynamic_front import DynamicParetoFront

        g = DiGraph(2, k=2)
        g.add_edge(0, 1, (5.0, 5.0))
        dpf = DynamicParetoFront(g, 0)
        batch = ChangeBatch.insertions([(0, 1, (1.0, 9.0))])
        batch.apply_to(g)
        with use_metrics() as reg:
            stats = dpf.update(batch)
        snap = reg.snapshot()
        assert snap["front_updates_total"] == 1.0
        assert snap["front_accepted_total"] == float(stats.accepted)

    def test_ownership_violation_counted(self):
        from repro.errors import OwnershipViolation
        from repro.parallel.atomics import OwnershipTracker

        t = OwnershipTracker()
        t.record_write(vertex=1, task=0)
        with use_metrics() as reg:
            with pytest.raises(OwnershipViolation):
                t.record_write(vertex=1, task=2)
        assert reg.snapshot()["ownership_violations_total"] == 1.0
