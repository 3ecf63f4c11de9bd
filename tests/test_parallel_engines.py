"""Unit tests for the parallel engines (all three backends)."""

import os
import pickle
import warnings

import numpy as np
import pytest

from repro.errors import EngineError, OwnershipViolation, UnknownEngineError
from repro.parallel import (
    OwnershipTracker,
    SerialEngine,
    SharedMemoryEngine,
    SimulatedEngine,
    WorkMeter,
    resolve_engine,
)
from repro.parallel.cost import DEFAULT_SECONDS_PER_UNIT, barrier_cost

# importable by spawn workers (closures are not; the process backends
# degrade to their documented serial fallback on the closure tests)
from tests._shm_support import boom_at_13, square

ALL_ENGINES = [
    SerialEngine(),
    SharedMemoryEngine(threads=2, min_dispatch_items=1),
    SimulatedEngine(threads=4),
]


def teardown_module(module) -> None:
    for e in ALL_ENGINES:
        closer = getattr(e, "close", None)
        if callable(closer):
            closer()


@pytest.mark.parametrize("engine", ALL_ENGINES, ids=lambda e: e.name)
class TestEngineSemantics:
    def test_results_in_order(self, engine):
        assert engine.parallel_for(list(range(20)), square) == [
            i * i for i in range(20)
        ]

    def test_empty_items(self, engine):
        assert engine.parallel_for([], square) == []

    def test_single_item(self, engine):
        assert engine.parallel_for([7], square) == [49]

    def test_side_effects_applied_exactly_once(self, engine):
        # a closure over ``hits``: shm cannot pickle it, so on shm this
        # runs in the caller through the documented serial fallback
        # (the pool cannot write the caller's list anyway)
        hits = [0] * 50

        def bump(i):
            # intentional shared write: this test *is* the check that
            # engines apply side effects exactly once per item
            hits[i] += 1  # repro: noqa(R001)
            return i

        engine.parallel_for(list(range(50)), bump)
        assert hits == [1] * 50

    def test_exception_propagates(self, engine):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="boom in pid") as info:
                engine.parallel_for(list(range(30)), boom_at_13)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        ran_in = int(str(info.value).rsplit(" ", 1)[1])
        # shm must reach its pool: the worker's ValueError surfaces as is
        assert (ran_in != os.getpid()) == (engine.name == "shm")


class TestResolveEngine:
    # checked=False pins the raw engine so these identity tests hold
    # even when REPRO_CHECKED_ENGINES is exported (the checked-tier1 CI
    # job); wrapping behaviour is covered by test_checked_engine.py.
    def test_none_is_serial(self):
        assert resolve_engine(None, checked=False).name == "serial"

    def test_by_name(self):
        e = resolve_engine("simulated", threads=8, checked=False)
        assert e.name == "simulated"
        assert e.threads == 8

    def test_instance_passthrough(self):
        e = SimulatedEngine(threads=2)
        assert resolve_engine(e, checked=False) is e

    def test_unknown_name_rejected(self):
        with pytest.raises(EngineError):
            resolve_engine("gpu")

    def test_unknown_engine_error_names_the_registry(self):
        with pytest.raises(UnknownEngineError) as exc_info:
            resolve_engine("gpu")
        err = exc_info.value
        assert err.name == "gpu"
        assert "shm" in err.valid
        assert "serial" in err.valid
        assert "shm" in str(err)
        assert isinstance(err, EngineError)  # old except clauses keep working

    def test_unknown_engine_error_round_trips_through_pickle(self):
        err = UnknownEngineError("gpu", ("serial", "shm"))
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, UnknownEngineError)
        assert clone.name == "gpu"
        assert clone.valid == ("serial", "shm")
        assert str(clone) == str(err)

    @pytest.mark.parametrize("name", ["processes", "partitioned", "threads"])
    def test_retired_engine_names_are_unknown(self, name):
        with pytest.raises(UnknownEngineError) as exc_info:
            resolve_engine(name)
        assert exc_info.value.valid == ("serial", "shm", "simulated")

    def test_thread_engine_class_is_gone(self):
        import repro.parallel

        assert not hasattr(repro.parallel, "ThreadEngine")

    def test_garbage_rejected(self):
        with pytest.raises(EngineError):
            resolve_engine(42)

    def test_zero_threads_rejected(self):
        with pytest.raises(EngineError):
            SimulatedEngine(threads=0)


class TestSimulatedEngine:
    def test_clock_advances(self):
        e = SimulatedEngine(threads=4)
        assert e.virtual_time == 0.0
        e.parallel_for(list(range(100)), square)
        assert e.virtual_time > 0.0
        assert e.supersteps == 1
        assert e.tasks_executed == 100

    def test_reset_clock(self):
        e = SimulatedEngine(threads=4)
        e.parallel_for([1, 2], square)
        e.reset_clock()
        assert e.virtual_time == 0.0
        assert e.supersteps == 0

    def test_more_threads_never_slower_balanced_load(self):
        times = []
        for t in (1, 2, 4, 8, 16):
            e = SimulatedEngine(threads=t, chunk_size=1)
            e.parallel_for([1] * 1024, square, work_fn=lambda i, r: 100.0)
            times.append(e.virtual_time)
        # balanced load: strictly improving until parallelism saturates
        assert times[0] > times[1] > times[2] > times[3]

    def test_speedup_bounded_by_threads(self):
        e1 = SimulatedEngine(threads=1)
        e1.parallel_for([1] * 256, square, work_fn=lambda i, r: 50.0)
        e8 = SimulatedEngine(threads=8)
        e8.parallel_for([1] * 256, square, work_fn=lambda i, r: 50.0)
        speedup = e1.virtual_time / e8.virtual_time
        assert 1.0 < speedup <= 8.0

    def test_skewed_load_limits_speedup(self):
        # one giant task dominates: speedup must collapse toward 1
        costs = [10000.0] + [1.0] * 63
        e1 = SimulatedEngine(threads=1, chunk_size=1)
        e1.parallel_for(list(range(64)), square,
                        work_fn=lambda i, r: costs[i])
        e64 = SimulatedEngine(threads=64, chunk_size=1)
        e64.parallel_for(list(range(64)), square,
                         work_fn=lambda i, r: costs[i])
        assert e1.virtual_time / e64.virtual_time < 1.5

    def test_barrier_cost_grows_with_threads(self):
        assert barrier_cost(1) == 0.0
        assert barrier_cost(64) > barrier_cost(2) > 0.0

    def test_many_tiny_supersteps_scale_badly(self):
        # barrier-dominated regime: 64 threads barely beat 4
        def run(t):
            e = SimulatedEngine(threads=t)
            for _ in range(200):
                e.parallel_for([1, 2], square, work_fn=lambda i, r: 1.0)
            return e.virtual_time

        t4, t64 = run(4), run(64)
        assert t64 > t4  # more threads = pure barrier overhead here

    def test_charge_serial_work(self):
        e = SimulatedEngine(threads=4)
        e.charge(1000.0)
        assert e.virtual_time == pytest.approx(
            1000.0 * DEFAULT_SECONDS_PER_UNIT
        )

    def test_negative_charge_rejected(self):
        with pytest.raises(EngineError):
            SimulatedEngine().charge(-1.0)

    def test_determinism(self):
        def run():
            e = SimulatedEngine(threads=6)
            rng = np.random.default_rng(3)
            costs = rng.uniform(1, 100, size=500)
            e.parallel_for(
                list(range(500)), square, work_fn=lambda i, r: costs[i]
            )
            return e.virtual_time

        assert run() == run()

    def test_default_work_is_one_unit(self):
        e = SimulatedEngine(threads=1)
        e.parallel_for([1, 2, 3], square)
        assert e.work_units == 3.0


class TestWorkMeter:
    def test_accumulate_and_reset(self):
        m = WorkMeter()
        m.add(5)
        m.add(2.5)
        assert m.total == 7.5
        assert m.reset() == 7.5
        assert m.total == 0.0


class TestOwnershipTracker:
    def test_single_writer_ok(self):
        t = OwnershipTracker()
        t.record_write(1, task=0)
        t.record_write(1, task=0)  # same task may rewrite
        t.record_write(2, task=1)
        assert t.writes == 3

    def test_double_writer_raises(self):
        t = OwnershipTracker()
        t.record_write(1, task=0)
        with pytest.raises(OwnershipViolation):
            t.record_write(1, task=1)

    def test_superstep_resets_ownership(self):
        t = OwnershipTracker()
        t.record_write(1, task=0)
        t.next_superstep()
        t.record_write(1, task=1)  # legal in a new superstep
        assert t.supersteps == 1
