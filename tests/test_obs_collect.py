"""Worker-side collection: buffers, capture scopes, clock-aligned merge."""

import pickle

import pytest

from repro.errors import ReproError
from repro.obs import (
    MetricsRegistry,
    Tracer,
    WorkerCapture,
    WorkerReport,
    estimate_offset,
    merge_report,
    merge_reports,
    obs_header,
    use_metrics,
    use_tracer,
)
from repro.obs.collect import SpanBuffer, WorkerCollector
from repro.obs.tracer import NULL_TRACER, Span


class TestSpanBuffer:
    def test_appends_in_order(self):
        buf = SpanBuffer(capacity=4)
        for name in ("a", "b", "c"):
            buf.append(Span(name))
        assert [s.name for s in buf.spans()] == ["a", "b", "c"]
        assert len(buf) == 3
        assert buf.dropped == 0

    def test_overflow_drops_and_counts_instead_of_growing(self):
        buf = SpanBuffer(capacity=2)
        slots_before = buf._slots
        for i in range(5):
            buf.append(Span(f"s{i}"))
        assert len(buf) == 2
        assert buf.dropped == 3
        assert [s.name for s in buf.spans()] == ["s0", "s1"]
        # the preallocated slot list is never replaced or grown
        assert buf._slots is slots_before
        assert len(buf._slots) == 2

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ReproError):
            SpanBuffer(capacity=0)


class TestWorkerCollector:
    def test_records_closed_spans_into_buffer(self):
        c = WorkerCollector(capacity=8)
        with c.span("outer"):
            with c.span("inner"):
                pass
        names = [s.name for s in c.buffer.spans()]
        assert names == ["inner", "outer"]  # completion order
        assert c.describe() == "collecting"

    def test_drain_swaps_buffer(self):
        c = WorkerCollector(capacity=8)
        with c.span("one"):
            pass
        assert [s.name for s in c.drain()] == ["one"]
        assert len(c.buffer) == 0

    def test_drain_preserves_cumulative_drop_count(self):
        """Satellite bug: drain() used to swap in a buffer with
        ``dropped = 0``, so a collector drained mid-chunk under-counted
        ``worker_spans_dropped_total`` — the counter must keep
        counting, never reset."""
        c = WorkerCollector(capacity=2)
        for i in range(5):
            with c.span(f"s{i}"):
                pass
        assert c.buffer.dropped == 3
        c.drain()
        assert c.buffer.dropped == 3  # carried, not reset
        for i in range(4):
            with c.span(f"t{i}"):
                pass
        # 2 recorded into the fresh buffer, 2 more dropped on top
        assert c.buffer.dropped == 5
        assert len(c.buffer) == 2


class TestWorkerCapture:
    def test_capture_installs_and_restores_process_state(self):
        header = {"t_send": 0.0, "capacity": 16.0}
        tracer = Tracer(recording=False)
        with use_tracer(tracer):
            with WorkerCapture(header) as cap:
                with cap.task("worker.slab", lo=0, hi=4) as sp:
                    pass
                assert sp.attrs == {"lo": 0, "hi": 4}
            report = cap.report()
        assert report.pid > 0
        assert report.t_reply >= report.t_recv
        assert [r["name"] for r in report.spans] == ["worker.slab"]
        assert report.metrics["worker_tasks_total"][0] == "counter"
        assert report.metrics["worker_tasks_total"][1] == 1.0
        assert report.dropped == 0

    def test_report_round_trips_through_pickle(self):
        with WorkerCapture({"t_send": 0.0}) as cap:
            with cap.task("worker.chunk"):
                pass
        report = pickle.loads(pickle.dumps(cap.report()))
        assert isinstance(report, WorkerReport)
        assert [r["name"] for r in report.spans] == ["worker.chunk"]

    def test_capacity_flows_from_header(self):
        with WorkerCapture({"t_send": 0.0, "capacity": 2.0}) as cap:
            for i in range(5):
                with cap.task(f"t{i}"):
                    pass
        report = cap.report()
        assert len(report.spans) == 2
        assert report.dropped == 3


class TestObsHeader:
    def test_none_unless_recording(self):
        with use_tracer(Tracer(recording=False)):
            assert obs_header() is None
        with use_tracer(NULL_TRACER):
            assert obs_header() is None

    def test_header_when_recording(self):
        with use_tracer(Tracer(recording=True)):
            header = obs_header(capacity=64)
        assert header is not None
        assert header["capacity"] == 64.0
        assert header["t_send"] > 0.0


class TestEstimateOffset:
    def test_recovers_known_skew(self):
        # worker clock runs 100s ahead; symmetric 1ms dispatch legs
        skew = 100.0
        t_send, t_done = 10.0, 10.012
        t_recv = t_send + 0.001 + skew
        t_reply = t_done - 0.001 + skew
        assert estimate_offset(t_send, t_recv, t_reply, t_done) == (
            pytest.approx(skew, abs=1e-9)
        )

    def test_asymmetry_error_bounded_by_round_trip(self):
        # all dispatch latency on the send leg: worst-case asymmetry
        est = estimate_offset(0.0, 0.010, 0.010, 0.010)
        assert abs(est - 0.0) <= 0.010 / 2 + 1e-12


def _skewed_report(skew, *, parent_chain=True, foreign_parent=None):
    """A report whose worker clock runs ``skew`` seconds off."""
    outer = {"name": "worker.outer", "span_id": 1, "parent_id": foreign_parent,
             "start": 5.0 + skew, "end": 5.4 + skew, "elapsed": 0.4,
             "thread": 1, "attrs": {"kernel": "k"}}
    inner = {"name": "worker.inner", "span_id": 2,
             "parent_id": 1 if parent_chain else None,
             "start": 5.1 + skew, "end": 5.2 + skew, "elapsed": 0.1,
             "thread": 1, "attrs": {}}
    return WorkerReport(
        pid=4711, t_recv=5.0 + skew, t_reply=5.4 + skew,
        spans=[inner, outer],  # completion order: child first
        metrics={"worker_tasks_total": ("counter", 2.0, "tasks in workers")},
        dropped=1,
    )


class TestMergeReport:
    def test_reparents_rebases_and_labels(self):
        skew = 1000.0
        report = _skewed_report(skew)
        tracer = Tracer(recording=True)
        registry = MetricsRegistry(enabled=True)
        with use_tracer(tracer), use_metrics(registry):
            with tracer.span("superstep") as anchor:
                n = merge_reports([report], t_send=5.0, anchor=anchor)
        assert n == 2
        spans = {s.name: s for s in tracer.drain()}
        outer, inner = spans["worker.outer"], spans["worker.inner"]
        # top-level worker span hangs off the anchor; nesting preserved
        assert outer.parent_id == anchor.span_id
        assert inner.parent_id == outer.span_id
        # fresh master ids, not the worker's colliding counters
        assert outer.span_id not in (1, 2)
        # rebased onto the master clock: inside the anchor window
        assert anchor.start <= outer.start <= outer.end <= (
            anchor.end + 0.5
        )
        assert outer.attrs["worker"] == "4711"
        assert "clock_offset" in outer.attrs
        assert outer.thread == 4711
        snap = registry.snapshot()
        assert snap['worker_tasks_total{worker="4711"}'] == 2.0
        assert snap["worker_spans_dropped_total"] == 1.0

    def test_start_clamped_to_anchor(self):
        # worker claims to have started *before* the dispatch: the
        # merged span must be clamped to the anchor's start
        report = _skewed_report(0.0)
        report.spans[1]["start"] = -50.0
        tracer = Tracer(recording=True)
        with use_tracer(tracer):
            with tracer.span("superstep") as anchor:
                merge_report(report, t_send=5.0, t_done=5.5, anchor=anchor)
        outer = [s for s in tracer.drain() if s.name == "worker.outer"][0]
        assert outer.start >= anchor.start
        assert outer.end >= outer.start

    def test_unresolvable_parent_falls_back_to_anchor(self):
        # a pickled closure can attach the *master's* span id inside
        # the worker; that id must not leak into the merged trace
        report = _skewed_report(0.0, parent_chain=True, foreign_parent=999)
        tracer = Tracer(recording=True)
        with use_tracer(tracer):
            with tracer.span("superstep") as anchor:
                merge_report(report, t_send=5.0, t_done=5.5, anchor=anchor)
        outer = [s for s in tracer.drain() if s.name == "worker.outer"][0]
        assert outer.parent_id == anchor.span_id

    def test_passive_tracer_merges_metrics_only(self):
        report = _skewed_report(0.0)
        tracer = Tracer(recording=False)
        registry = MetricsRegistry(enabled=True)
        n = merge_report(report, t_send=5.0, t_done=5.5,
                         tracer=tracer, registry=registry)
        assert n == 0
        assert registry.snapshot()['worker_tasks_total{worker="4711"}'] == 2.0


class TestBufferOverflowE2E:
    """Satellite fixture: overflow through the *real* dispatch path.

    A slab kernel emits far more spans than the worker's preallocated
    buffer holds; the drop count must accumulate master-side across
    chunks and supersteps (keep counting, not saturate) while the
    merged trace still validates."""

    def test_dispatch_overflow_counts_and_trace_validates(self, tmp_path):
        import numpy as np

        from repro.obs import (
            export_chrome_trace,
            get_metrics,
            validate_chrome_trace,
        )
        from repro.obs.engine import TracedEngine
        from repro.parallel import SharedMemoryEngine, SlabTask

        spam = "tests._shm_support:spam_spans_slab"
        tracer = Tracer(recording=True)
        with use_tracer(tracer), use_metrics():
            e = TracedEngine(SharedMemoryEngine(threads=2,
                                                min_dispatch_items=1))
            task = SlabTask(ref=spam,
                            arrays={"out": np.zeros(4, dtype=np.float64)},
                            params={"spans": 600}, writes=("out",))
            e.parallel_for_slabs(4, task)
            registry = get_metrics()
            first = registry.snapshot()["worker_spans_dropped_total"]
            # each slab span costs capacity; 600 spans/slab >> 512 slots
            assert first > 0
            e.parallel_for_slabs(4, task)
            second = registry.snapshot()["worker_spans_dropped_total"]
            # accumulates across supersteps — no saturation, no reset
            assert second > first
            e.close()
        spans = tracer.drain()
        assert sum(1 for s in spans if s.name == "spam") > 0
        path = tmp_path / "overflow-trace.json"
        export_chrome_trace(spans, path)
        assert validate_chrome_trace(path) == []
