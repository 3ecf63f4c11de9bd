"""The shared-memory engine's measured dispatch policy.

:class:`~repro.parallel.backends.shm.DispatchPolicy` reads no clock:
the engine feeds it the seconds it measured, so the decision rule is
tested deterministically with synthetic costs, and the engine's wiring
(what it times, what it leaves out) with a fake
``repro.obs.clock.perf``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.obs import clock
from repro.obs.metrics import use_metrics
from repro.parallel import SharedMemoryEngine, SlabTask, slab_spans
from repro.parallel.backends.shm import (
    DISPATCHED,
    INLINE,
    PROBE,
    DispatchPolicy,
)

REF = "tests._shm_support:double_slab"


def run_policy(policy, sizes, a_i, fixed, a_w, workers=2, c_i=0.0, c_w=0.0):
    """Drive ``policy`` over supersteps of ``sizes`` items whose true
    costs are ``c_i + a_i·n`` s inline and ``fixed + c_w + a_w·n/workers``
    s dispatched; return the path chosen for each."""
    paths = []
    for n in sizes:
        path = policy.choose(REF, n, workers)
        paths.append(path)
        if path == INLINE:
            policy.observe_inline(REF, n, c_i + a_i * n)
        else:
            chunk = c_w + a_w * n / workers
            policy.observe_dispatch(
                REF, fixed + chunk, [(n / workers, chunk)] * workers
            )
    return paths


class TestMeasuredRule:
    @pytest.mark.parametrize("n_supersteps", [10, 100, 1000, 5000])
    def test_losing_dispatch_costs_only_log_probes(self, n_supersteps):
        # a_w / threads >= a_i: workers never finish first, whatever F
        rng = np.random.default_rng(n_supersteps)
        sizes = rng.integers(128, 20_000, size=n_supersteps).tolist()
        paths = run_policy(DispatchPolicy(), sizes,
                           a_i=1e-6, fixed=1e-3, a_w=4e-6)
        assert paths[0] == INLINE  # learns a_i first
        assert DISPATCHED not in paths
        probes = paths.count(PROBE)
        assert 1 <= probes <= math.ceil(math.log2(n_supersteps)) + 2

    def test_even_free_dispatch_loses_when_workers_are_slow(self):
        paths = run_policy(DispatchPolicy(), [10_000] * 200,
                           a_i=1e-6, fixed=0.0, a_w=2.2e-6)
        assert DISPATCHED not in paths
        assert paths.count(PROBE) <= math.ceil(math.log2(200)) + 2

    def test_cheap_dispatch_sends_large_supersteps_to_workers(self):
        # F + a_w·n/2 < a_i·n  <=>  n > 200 here
        policy = DispatchPolicy()
        run_policy(policy, [5_000, 5_000], a_i=1e-6, fixed=1e-4, a_w=1e-6)
        c = policy.costs[REF]
        assert c.fixed == pytest.approx(1e-4)
        assert c.worker_fit()[1] == pytest.approx(1e-6)
        sizes = [10_000, 50, 20_000, 100, 150, 1_000, 80] * 20
        paths = run_policy(policy, sizes, a_i=1e-6, fixed=1e-4, a_w=1e-6)
        for n, path in zip(sizes, paths):
            if n >= 1_000:
                assert path == DISPATCHED, n
            else:
                assert path in (INLINE, PROBE), n
        small = [p for n, p in zip(sizes, paths) if n < 1_000]
        assert small.count(PROBE) <= math.ceil(math.log2(len(small))) + 2

    def test_inline_fixed_cost_does_not_inflate_the_rate(self):
        # every inline superstep costs 0.2 ms + 0.5 µs/item; workers
        # cost 1.5 µs/item, so over two workers dispatch never wins
        policy = DispatchPolicy()
        policy.observe_inline(REF, 16_000, 2e-4 + 0.5e-6 * 16_000)
        policy.observe_dispatch(REF, 5e-3 + 12e-3, [(8_000, 12e-3)] * 2)
        # a wave's tail of small supersteps: seconds ÷ items would read
        # ~2 µs/item here and send the next large superstep to workers
        for n in [70, 90, 120, 100, 80, 128, 66, 110] * 4:
            policy.observe_inline(REF, n, 2e-4 + 0.5e-6 * n)
        c_i, a_i = policy.costs[REF].inline.fit()
        assert c_i == pytest.approx(2e-4) and a_i == pytest.approx(0.5e-6)
        assert policy.choose(REF, 16_000, 2) != DISPATCHED

    def test_small_probes_do_not_hide_a_win(self):
        # eight workers, each chunk paying 0.4 ms of per-slab overhead:
        # seconds ÷ items over small probes reads ~7 µs/item and would
        # keep this host inline, where 50k-item supersteps win 4x
        policy = DispatchPolicy()
        truth = dict(a_i=0.45e-6, c_i=2e-4, fixed=2e-3, a_w=0.45e-6,
                     c_w=4e-4, workers=8)
        paths = run_policy(policy, [400, 400, 600, 500, 300], **truth)
        assert paths.count(PROBE) == 2  # chunks of 50 and 62.5 items
        assert policy.costs[REF].worker_fit()[1] == pytest.approx(0.45e-6)
        assert policy.choose(REF, 50_000, 8) == DISPATCHED

    def test_bootstrap_probes_until_a_dispatch_is_measured(self):
        policy = DispatchPolicy()
        assert policy.choose(REF, 1_000, 2) == INLINE
        policy.observe_inline(REF, 1_000, 1e-3)
        # the worker line is assumed to be the inline line until a
        # dispatch was measured
        assert policy.costs[REF].worker_fit() == (0.0, pytest.approx(1e-6))
        # unmeasured dispatches (e.g. the first on a fresh pool) leave
        # F unknown, so the next small enough superstep probes again
        assert policy.choose(REF, 1_000, 2) == PROBE
        assert policy.choose(REF, 5_000, 2) == INLINE  # larger than usual
        assert policy.choose(REF, 1_000, 2) == PROBE
        policy.observe_dispatch(REF, 5e-3, [(500, 4e-4), (500, 5e-4)])
        assert policy.costs[REF].fixed == pytest.approx(4.5e-3)
        assert policy.costs[REF].worker_fit()[1] == pytest.approx(9e-7, rel=0.01)

    def test_one_outlier_does_not_pin_a_kernel_inline(self):
        policy = DispatchPolicy()
        run_policy(policy, [5_000] * 4, a_i=1e-6, fixed=1e-4, a_w=1e-6)
        # one dispatch that paid a 50 ms re-plant
        policy.observe_dispatch(REF, 0.05, [(2_500, 2.5e-3)] * 2)
        assert policy.choose(REF, 10_000, 2) == DISPATCHED

    def test_kernels_are_measured_separately(self):
        policy = DispatchPolicy()
        run_policy(policy, [5_000] * 4, a_i=1e-6, fixed=1e-4, a_w=1e-6)
        assert policy.choose(REF, 10_000, 2) == DISPATCHED
        assert policy.choose("other:kernel", 10_000, 2) == INLINE


class TestStaticRule:
    def test_int_cutoff_is_the_static_rule_decision_for_decision(self):
        policy = DispatchPolicy(min_dispatch_items=2048)
        rng = np.random.default_rng(7)
        for n in rng.integers(1, 10_000, size=500).tolist():
            expected = DISPATCHED if n >= 2048 else INLINE
            assert policy.choose(REF, n, 2) == expected
        # costs observed under the static rule never change a decision
        policy.observe_inline(REF, 10_000, 10.0)
        assert policy.choose(REF, 100, 2) == INLINE

    def test_engine_follows_the_static_rule(self):
        e = SharedMemoryEngine(threads=2, min_dispatch_items=300)
        try:
            for n in (50, 200, 299, 300, 1_000, 64, 5_000):
                out = np.ones(n, dtype=np.float64)
                e.parallel_for_slabs(n, SlabTask(ref=REF, arrays={"out": out}),
                                     min_chunk=64)
                eligible = len(slab_spans(n, e, 64)) > 1
                expected = DISPATCHED if eligible and n >= 300 else INLINE
                assert e.last_slab_path == expected, n
                np.testing.assert_array_equal(out, 2.0)
        finally:
            e.close()


class FakeClock:
    """``repro.obs.clock.perf`` stand-in: ``step`` seconds per read."""

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestEngineMeasurements:
    @pytest.fixture()
    def fake(self, monkeypatch):
        fake = FakeClock(1e-3)
        monkeypatch.setattr(clock, "perf", fake)
        return fake

    def _slow_pool_starts(self, e, fake, monkeypatch, seconds=100.0):
        ensure = e._ensure_pool

        def slow_ensure():
            if e._pool is None:
                fake.now += seconds
            return ensure()

        monkeypatch.setattr(e, "_ensure_pool", slow_ensure)

    def test_pool_start_is_never_counted_in_f(self, fake, monkeypatch):
        e = SharedMemoryEngine(threads=2, min_dispatch_items=1)
        self._slow_pool_starts(e, fake, monkeypatch)
        try:
            for _ in range(3):
                e.parallel_for_slabs(256, SlabTask(
                    ref=REF, arrays={"out": np.ones(256)}))
            e._reset_pool()  # e.g. after a worker died
            for _ in range(2):
                e.parallel_for_slabs(256, SlabTask(
                    ref=REF, arrays={"out": np.ones(256)}))
            samples = list(e.policy.costs[REF].fixed_samples)
            # the first dispatch after each pool start is not a sample
            assert len(samples) == 3
            assert max(samples) < 1.0
            assert e.dispatched_supersteps == 5
        finally:
            e.close()

    def test_default_policy_learns_then_probes(self, fake, monkeypatch):
        e = SharedMemoryEngine(threads=2)
        self._slow_pool_starts(e, fake, monkeypatch)
        try:
            paths = []
            with use_metrics() as reg:
                for _ in range(3):
                    e.parallel_for_slabs(1_000, SlabTask(
                        ref=REF, arrays={"out": np.ones(1_000)}))
                    paths.append(e.last_slab_path)
                snap = reg.snapshot()
            assert paths == [INLINE, PROBE, PROBE]
            c = e.policy.costs[REF]
            # the inline superstep read the clock twice: one step
            assert c.inline.fit() == (0.0, pytest.approx(1e-3 / 1_000))
            assert len(c.fixed_samples) == 1 and c.fixed < 1.0
            assert snap['shm_supersteps_total{path="inline"}'] == 1
            assert snap['shm_supersteps_total{path="probe"}'] == 2
            label = f'{{kernel="{REF}"}}'
            assert snap["shm_inline_seconds_per_item" + label] == (
                pytest.approx(1e-6))
            assert snap["shm_inline_fixed_seconds" + label] == 0.0
            for gauge in ("dispatch_fixed_seconds", "worker_fixed_seconds",
                          "worker_seconds_per_item"):
                assert f"shm_{gauge}{label}" in snap
        finally:
            e.close()

    def test_single_slab_and_one_worker_supersteps_are_not_samples(
        self, fake
    ):
        for e, n in ((SharedMemoryEngine(threads=2), 32),
                     (SharedMemoryEngine(threads=1), 4_096)):
            try:
                e.parallel_for_slabs(n, SlabTask(
                    ref=REF, arrays={"out": np.ones(n)}), min_chunk=64)
                assert e.last_slab_path == INLINE
                assert REF not in e.policy.costs
            finally:
                e.close()
