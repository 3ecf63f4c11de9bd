"""Tests for cost-model calibration and the shm engine's generic
``parallel_for`` path (pickled closures, serial fallback)."""

import pytest

from repro.bench.calibration import (
    calibrate_cost_model,
    measure_seconds_per_relaxation,
)
from repro.parallel import SharedMemoryEngine, SimulatedEngine
from repro.parallel.backends.shm import _chunk_runner


def test_measurement_positive_and_plausible():
    s = measure_seconds_per_relaxation(iterations=20_000)
    # a Python relaxation costs somewhere between 10ns and 100µs on
    # any machine this century
    assert 1e-8 < s < 1e-4


def test_calibrated_model_scales_consistently():
    cm = calibrate_cost_model(iterations=20_000)
    default_ratio = cm.task_overhead / cm.seconds_per_unit
    from repro.parallel.backends.simulated import CostModel

    base = CostModel()
    assert default_ratio == pytest.approx(
        base.task_overhead / base.seconds_per_unit
    )
    assert cm.barrier_cost(8) > 0


def test_calibrated_model_drives_engine():
    cm = calibrate_cost_model(iterations=20_000)
    eng = SimulatedEngine(threads=4, cost_model=cm)
    eng.parallel_for([1, 2, 3], lambda x: x, work_fn=lambda i, r: 10.0)
    assert eng.virtual_time > 0


# ----------------------------------------------------------------------
# SharedMemoryEngine.parallel_for: needs module-level (picklable) task
# functions
# ----------------------------------------------------------------------

def _square(x):
    return x * x


class TestSharedMemoryParallelFor:
    def test_small_input_runs_inline(self):
        eng = SharedMemoryEngine(threads=2, min_items_per_process=100)
        assert eng.parallel_for([1, 2, 3], _square) == [1, 4, 9]
        assert eng._pool is None  # below the threshold: no spawn
        eng.close()

    def test_picklable_function_across_processes(self):
        with SharedMemoryEngine(threads=2, min_items_per_process=1) as eng:
            out = eng.parallel_for(list(range(40)), _square)
            assert eng._pool is not None
        assert out == [i * i for i in range(40)]

    def test_unpicklable_falls_back_with_warning(self):
        captured = []

        def closure(x):
            # intentionally unpicklable shared state: proves the shm
            # engine's serial fallback still runs the closure
            captured.append(x)  # repro: noqa(R001)
            return x + 1

        eng = SharedMemoryEngine(threads=2, min_items_per_process=1)
        with pytest.warns(RuntimeWarning):
            out = eng.parallel_for(list(range(10)), closure)  # repro: noqa(R007)
        assert out == list(range(1, 11))
        eng.close()

    def test_chunk_runner_roundtrip(self):
        import pickle

        blob = pickle.dumps((_square, [2, 3]))
        reply = _chunk_runner(blob)
        assert reply[:1] == b"R"  # tagged: results follow
        assert pickle.loads(reply[1:]) == [4, 9]

    def test_chunk_runner_reports_undecodable_payload(self):
        import pickle

        reply = _chunk_runner(b"\x80\x05 not a pickle")
        assert reply[:1] == b"U"  # tagged: unpicklable, master falls back
        assert isinstance(pickle.loads(reply[1:]), str)
