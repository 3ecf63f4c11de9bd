"""CheckedEngine: the ownership sanitizer one flag away on any backend."""

import numpy as np
import pytest

from repro.core.sosp_update import sosp_update
from repro.core.tree import SOSPTree
from repro.dynamic.changes import ChangeBatch
from repro.errors import OwnershipViolation
from repro.graph.digraph import DiGraph
from repro.parallel import (
    CheckedEngine,
    OwnershipTracker,
    SerialEngine,
    SimulatedEngine,
    resolve_engine,
)

FAMILIES = ["serial", "shm", "simulated"]


class TestWrapping:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_resolve_checked_wraps_every_family(self, family):
        eng = resolve_engine(family, threads=2, checked=True)
        assert isinstance(eng, CheckedEngine)
        assert eng.name == f"checked({eng.inner.name})"
        assert isinstance(eng.tracker, OwnershipTracker)
        if hasattr(eng.inner, "close"):
            eng.close()

    def test_instance_gets_wrapped(self):
        raw = SimulatedEngine(threads=4)
        eng = resolve_engine(raw, checked=True)
        assert isinstance(eng, CheckedEngine)
        assert eng.inner is raw

    def test_never_double_wrapped(self):
        eng = resolve_engine("serial", checked=True)
        again = resolve_engine(eng, checked=True)
        assert not isinstance(again.inner, CheckedEngine)
        rewrapped = CheckedEngine(eng)
        assert not isinstance(rewrapped.inner, CheckedEngine)

    def test_env_var_opts_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKED_ENGINES", "1")
        assert isinstance(resolve_engine(None), CheckedEngine)

    def test_env_var_falsy_values_ignored(self, monkeypatch):
        for value in ("", "0", "false"):
            monkeypatch.setenv("REPRO_CHECKED_ENGINES", value)
            assert isinstance(resolve_engine(None), SerialEngine)

    def test_explicit_false_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKED_ENGINES", "1")
        assert isinstance(
            resolve_engine(None, checked=False), SerialEngine
        )


class TestDelegation:
    def test_results_unchanged(self):
        eng = CheckedEngine(SerialEngine())
        assert eng.parallel_for([1, 2, 3], lambda x: x * x) == [1, 4, 9]
        total = eng.map_reduce(
            [1, 2, 3], lambda x: x, lambda a, r: a + r, 0
        )
        assert total == 6

    def test_threads_property(self):
        eng = CheckedEngine(SimulatedEngine(threads=8))
        assert eng.threads == 8

    def test_backend_surface_reachable(self):
        eng = CheckedEngine(SimulatedEngine(threads=2))
        eng.parallel_for([1, 2], lambda x: x)
        assert eng.virtual_time > 0.0  # delegated attribute
        eng.charge(10.0)

    def test_superstep_advances_tracker(self):
        eng = CheckedEngine(SerialEngine())
        start = eng.tracker.supersteps
        eng.parallel_for([1], lambda x: x)
        eng.parallel_for([1], lambda x: x)
        assert eng.tracker.supersteps == start + 2


class TestViolationDetection:
    def test_double_write_same_superstep_raises(self):
        eng = CheckedEngine(SerialEngine())

        def task(item):
            task_id, v = item
            eng.tracker.record_write(v, task_id)
            return v

        # two tasks claim vertex 7 inside one superstep
        with pytest.raises(OwnershipViolation):
            eng.parallel_for(list(enumerate([7, 7])), task)

    def test_write_across_supersteps_legal(self):
        eng = CheckedEngine(SerialEngine())

        def task(item):
            task_id, v = item
            eng.tracker.record_write(v, task_id)
            return v

        eng.parallel_for(list(enumerate([7])), task)
        eng.parallel_for(list(enumerate([7])), task)  # new superstep
        assert eng.tracker.writes == 2


class TestKernelsUnderCheckedEngines:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_sosp_update_correct_and_tracked(self, family):
        g = DiGraph(6, k=1)
        for u, v, w in [(0, 1, 2.0), (1, 2, 2.0), (2, 3, 2.0),
                        (0, 4, 9.0), (4, 5, 1.0)]:
            g.add_edge(u, v, (w,))
        tree = SOSPTree.build(g, 0, objective=0)
        eng = resolve_engine(family, threads=2, checked=True)
        batch = ChangeBatch.insertions([(3, 5, (1.0,)), (1, 4, (1.0,))])
        batch.apply_to(g)
        sosp_update(g, tree, batch, engine=eng)
        assert tree.dist[4] == pytest.approx(3.0)
        assert tree.dist[5] == pytest.approx(4.0)
        # the kernels picked the engine tracker up automatically
        assert eng.tracker.writes > 0
        if hasattr(eng.inner, "close"):
            eng.close()


class TestWriteSetCrossCheck:
    """CheckedEngine's runtime twin of lint rule R006."""

    def _engine(self):
        from repro.parallel.backends.shm import SharedMemoryEngine

        return CheckedEngine(
            SharedMemoryEngine(threads=1, min_dispatch_items=1)
        )

    def test_static_violation_rejected_before_dispatch(self):
        from repro.errors import WriteSetViolation
        from repro.parallel.api import SlabTask

        eng = self._engine()
        try:
            out = np.zeros(8, dtype=np.int64)
            aux = np.zeros(8, dtype=np.int64)
            with pytest.raises(WriteSetViolation, match="static"):
                # intentional drift: the violation under test
                eng.parallel_for_slabs(8, SlabTask(  # repro: noqa(R006)
                    ref="tests._shm_support:sneaky_slab",
                    arrays={"out": out, "aux": aux},
                    writes=("out",),
                ))
            # rejected before dispatch: nothing ran, nothing mutated
            assert not out.any()
        finally:
            eng.close()

    def test_dynamic_violation_caught_by_digest(self):
        # the victim key comes from params, so static inference returns
        # an incomplete write-set — only the before/after content
        # digest can see the undeclared mutation
        from repro.analysis import infer_ref_writes
        from repro.errors import WriteSetViolation
        from repro.parallel.api import SlabTask

        ws = infer_ref_writes("tests._shm_support:dynamic_write_slab")
        assert ws is not None and not ws.complete

        eng = self._engine()
        try:
            with pytest.raises(WriteSetViolation, match="observed"):
                eng.parallel_for_slabs(8, SlabTask(
                    ref="tests._shm_support:dynamic_write_slab",
                    arrays={"out": np.zeros(8, dtype=np.int64),
                            "aux": np.zeros(8, dtype=np.int64)},
                    params={"victim": "aux"},
                    writes=("out",),
                ))
        finally:
            eng.close()

    def test_declared_writes_pass(self):
        from repro.parallel.api import SlabTask

        eng = self._engine()
        try:
            out = np.ones(8, dtype=np.int64)
            res = eng.parallel_for_slabs(8, SlabTask(
                ref="tests._shm_support:double_slab",
                arrays={"out": out},
                writes=("out",),
            ))
            assert sum(res) == 16.0
            assert (out == 2).all()
        finally:
            eng.close()

    def test_writes_none_skips_cross_check(self):
        # writes=None means "unknown: copy everything back" — the
        # cross-check has no declaration to hold the kernel to
        from repro.parallel.api import SlabTask

        eng = self._engine()
        try:
            eng.parallel_for_slabs(8, SlabTask(
                ref="tests._shm_support:sneaky_slab",
                arrays={"out": np.zeros(8, dtype=np.int64),
                        "aux": np.zeros(8, dtype=np.int64)},
                writes=None,
            ))
        finally:
            eng.close()

    def test_violation_pickles(self):
        import pickle

        from repro.errors import WriteSetViolation

        e = WriteSetViolation("m:fn", ("aux",), "static write-set inference")
        e2 = pickle.loads(pickle.dumps(e))
        assert (e2.ref, e2.arrays, e2.how) == (e.ref, e.arrays, e.how)
        assert "aux" in str(e2)
