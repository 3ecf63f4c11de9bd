"""Tracer semantics: nesting, reparenting across backends, overhead.

The contract under test is the ISSUE's tentpole: every
``parallel_for`` superstep appears as a span annotated with phase,
item count, and work distribution, correctly *nested under* its
algorithm-phase span — including on pool threads that never inherited
the caller's context — and the disabled paths stay near-free.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Span,
    TracedEngine,
    Tracer,
    current_span,
    get_tracer,
    use_tracer,
)
from repro.parallel import resolve_engine
from tests._checked_env import engine_label

REPO_ROOT = Path(__file__).parents[1]


def _spawn_span(item):
    """Module-level (picklable) task that opens its own span."""
    with get_tracer().span("task", item=item):
        return item * 2


class TestSpanBasics:
    def test_times_and_elapsed(self):
        t = Tracer(recording=True)
        with use_tracer(t):
            with t.span("outer") as sp:
                assert sp.elapsed == 0.0  # still open
        assert sp.end is not None and sp.end >= sp.start
        assert sp.elapsed == sp.end - sp.start

    def test_nesting_sets_parent_ids(self):
        t = Tracer(recording=True)
        with use_tracer(t):
            with t.span("a") as a:
                with t.span("b") as b:
                    with t.span("c") as c:
                        assert current_span() is c
                assert current_span() is a
            assert current_span() is None
        assert a.parent_id is None
        assert b.parent_id == a.span_id
        assert c.parent_id == b.span_id

    def test_finish_order_is_close_order(self):
        t = Tracer(recording=True)
        with use_tracer(t):
            with t.span("outer"):
                with t.span("inner"):
                    pass
        assert [s.name for s in t.drain()] == ["inner", "outer"]
        assert t.drain() == []  # drain empties

    def test_passive_tracer_times_but_retains_nothing(self):
        t = Tracer(recording=False)
        with use_tracer(t):
            with t.span("x") as sp:
                pass
        assert sp.elapsed >= 0.0 and sp.end is not None
        assert t.finished == []

    def test_set_attaches_attributes(self):
        sp = Span("s", foo=1)
        sp.set(bar=2)
        d = sp.to_dict()
        assert d["attrs"] == {"foo": 1, "bar": 2}
        assert d["name"] == "s" and d["span_id"] == sp.span_id


class TestNullTracer:
    def test_shared_span_zero_elapsed_nothing_recorded(self):
        t = NullTracer()
        with t.span("anything") as a, t.span("else") as b:
            assert a is b  # one shared dummy span
        assert a.elapsed == 0.0
        assert t.finished == []

    def test_repro_obs_off_selects_null_tracer(self):
        env = dict(os.environ)
        env["REPRO_OBS"] = "off"
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.obs import get_tracer; "
             "print(get_tracer().describe())"],
            capture_output=True, text=True, env=env,
        )
        assert proc.stdout.strip() == "off"

    def test_describe_states(self):
        assert NULL_TRACER.describe() == "off"
        assert Tracer(recording=False).describe() == "passive"
        assert Tracer(recording=True).describe() == "recording"


class TestTracedEngineNesting:
    def _run_phase(self, engine_name, threads=1):
        tracer = Tracer(recording=True)
        with use_tracer(tracer):
            eng = resolve_engine(engine_name, threads=threads)
            assert isinstance(eng, TracedEngine)
            try:
                with tracer.span("phase") as phase:
                    results = eng.parallel_for(
                        list(range(8)), _spawn_span,
                        work_fn=lambda item, r: 1 + item,
                    )
            finally:
                getattr(eng, "close", lambda: None)()
        assert results == [i * 2 for i in range(8)]
        return phase, tracer.drain()

    def test_serial_superstep_nested_under_phase(self):
        phase, spans = self._run_phase("serial")
        ss = [s for s in spans if s.name == "superstep"]
        assert len(ss) == 1
        assert ss[0].parent_id == phase.span_id
        assert ss[0].attrs["phase"] == "phase"
        assert ss[0].attrs["backend"] == engine_label("serial")
        assert ss[0].attrs["items"] == 8
        assert ss[0].attrs["work_total"] == sum(1 + i for i in range(8))
        assert ss[0].attrs["work_max"] == 8.0

    def test_simulated_task_spans_nest_under_superstep(self):
        # task bodies run in the caller's context, so the spans they
        # open are children of the superstep span
        phase, spans = self._run_phase("simulated", threads=3)
        ss = [s for s in spans if s.name == "superstep"]
        tasks = [s for s in spans if s.name == "task"]
        assert len(ss) == 1 and ss[0].parent_id == phase.span_id
        assert len(tasks) == 8
        assert {s.parent_id for s in tasks} == {ss[0].span_id}

    def test_shm_superstep_recorded(self):
        # worker processes keep their own (default) tracer; the
        # coordinating side still records the superstep span
        phase, spans = self._run_phase("shm", threads=2)
        ss = [s for s in spans if s.name == "superstep"]
        assert len(ss) == 1 and ss[0].parent_id == phase.span_id
        assert ss[0].attrs["items"] == 8

    def test_map_reduce_emits_superstep_span(self):
        tracer = Tracer(recording=True)
        with use_tracer(tracer):
            eng = resolve_engine("serial")
            total = eng.map_reduce(
                [1, 2, 3], lambda x: x, lambda acc, r: acc + r, 0
            )
        assert total == 6
        ss = [s for s in tracer.drain() if s.name == "superstep"]
        assert len(ss) == 1 and ss[0].attrs["op"] == "map_reduce"

    def test_no_wrapping_without_recording_tracer(self):
        with use_tracer(Tracer(recording=False)):
            eng = resolve_engine("serial")
        assert not isinstance(eng, TracedEngine)

    def test_checked_engine_composes_under_tracer(self):
        from repro.parallel.checked import CheckedEngine

        tracer = Tracer(recording=True)
        with use_tracer(tracer):
            eng = resolve_engine("serial", checked=True)
            assert isinstance(eng, TracedEngine)
            assert isinstance(eng.inner, CheckedEngine)
            assert eng.tracker is eng.inner.tracker  # delegation
            eng.parallel_for([0, 1], lambda x: x)
        assert [s.name for s in tracer.drain()] == ["superstep"]

    def test_never_double_wraps(self):
        tracer = Tracer(recording=True)
        with use_tracer(tracer):
            eng = resolve_engine("serial")
            again = resolve_engine(eng)
            assert again is eng
            rewrapped = TracedEngine(eng)
            assert not isinstance(rewrapped.inner, TracedEngine)

    def test_simulated_engine_virtual_clock_still_reachable(self):
        tracer = Tracer(recording=True)
        with use_tracer(tracer):
            eng = resolve_engine("simulated", threads=4)
            eng.parallel_for([0, 1, 2], lambda x: x,
                             work_fn=lambda i, r: 5.0)
            assert eng.virtual_time > 0.0


class TestOverheadSmoke:
    def test_null_tracer_span_is_cheap(self):
        # not a benchmark — just catches an accidental O(n) or lock on
        # the fully disabled path
        import timeit

        t = NullTracer()

        def loop():
            with t.span("x"):
                pass

        per_call = min(timeit.repeat(loop, number=10_000, repeat=3)) / 10_000
        assert per_call < 50e-6  # generous absolute bound

    def test_overhead_gate_tool_runs(self):
        from repro.obs.__main__ import main as obs_main
        import io

        out = io.StringIO()
        # gate at an absurdly high ratio: this asserts the tool works,
        # CI enforces the real 1.10 budget
        code = obs_main(["overhead", "--gate", "100", "--repeats", "3"],
                        out=out)
        assert code == 0
        assert "ratio" in out.getvalue()
