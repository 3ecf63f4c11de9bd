"""Phase-taxonomy attribution of merged traces (``repro.obs report``)."""

import io
import json

import pytest

from repro.errors import ReproError
from repro.obs import (
    Tracer,
    attribute_trace,
    export_chrome_trace,
    export_jsonl,
    load_trace,
    render_text,
    use_tracer,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.report import _classify


def _row(name, span_id, parent_id, start, end, thread=1, attrs=None):
    return {
        "name": name, "span_id": span_id, "parent_id": parent_id,
        "start": start, "end": end, "elapsed": end - start,
        "thread": thread, "attrs": dict(attrs or {}),
    }


def _demo_rows():
    """A miniature update-demo trace: driver > setup/step2 > workers."""
    return [
        _row("cli.update-demo", 1, None, 0.0, 10.0),
        _row("setup.load", 2, 1, 0.0, 2.0),
        _row("sosp_update.step2", 3, 1, 2.0, 9.0),
        _row("superstep", 4, 3, 3.0, 8.0,
             attrs={"phase": "sosp_update.step2", "threads": 2}),
        _row("worker.slab", 5, 4, 3.5, 5.5, thread=100,
             attrs={"worker": "100"}),
        _row("worker.slab", 6, 4, 3.5, 6.5, thread=200,
             attrs={"worker": "200"}),
    ]


class TestClassify:
    @pytest.mark.parametrize("name,bucket", [
        ("cli.update-demo", "driver"),
        ("bench.record_mosp_trace", "driver"),
        ("setup.build_tree", "setup"),
        ("teardown.close", "teardown"),
        ("sosp_update.invalidate", "step1"),
        ("sosp_update.step1", "step1"),
        ("mosp_update.sosp_update_0", "step1"),
        ("sosp_update.step2", "step2"),
        ("mosp_update.ensemble", "step2"),
        ("mosp_update.bellman_ford", "step3"),
        ("mosp_update.reassign", "step3"),
        ("dynamic_front.update", "front"),
        ("superstep", None),
        ("unheard.of", None),
    ])
    def test_name_to_bucket(self, name, bucket):
        assert _classify(name) == bucket


class TestAttribution:
    def test_self_time_never_double_counts(self):
        report = attribute_trace(_demo_rows())
        assert report["wall_seconds"] == pytest.approx(10.0)
        phases = report["phases"]
        # driver = root self-time: 10 - (2 + 7) = 1
        assert phases["driver"] == pytest.approx(1.0)
        assert phases["setup"] == pytest.approx(2.0)
        # step2 = parent self-time (7 - 5) + the superstep's worker
        # window (3.5..6.5 = 3 of its 5s self-time)
        assert phases["step2"] == pytest.approx(2.0 + 3.0)
        # the uncovered 2s of the superstep is dispatch cost
        assert phases["dispatch"] == pytest.approx(2.0)
        assert report["coverage"] == pytest.approx(1.0)
        assert report["spans"] == 4
        assert report["worker_spans"] == 2

    def test_worker_summary(self):
        report = attribute_trace(_demo_rows())
        w = report["workers"]
        assert w["count"] == 2
        assert w["busy_seconds"] == pytest.approx(5.0)
        # 2 lanes x 3s window - 5s busy
        assert w["idle_seconds"] == pytest.approx(1.0)
        assert w["max_skew_seconds"] == pytest.approx(1.0)

    def test_unknown_spans_land_in_other_and_cut_coverage(self):
        rows = [
            _row("cli.demo", 1, None, 0.0, 10.0),
            _row("mystery", 2, 1, 0.0, 4.0),
        ]
        report = attribute_trace(rows)
        assert report["phases"]["other"] == pytest.approx(4.0)
        assert report["coverage"] == pytest.approx(0.6)

    def test_nameless_children_inherit_parent_bucket(self):
        rows = [
            _row("sosp_update.step1", 1, None, 0.0, 4.0),
            _row("unheard.of", 2, 1, 1.0, 3.0),
        ]
        report = attribute_trace(rows)
        assert report["phases"]["step1"] == pytest.approx(4.0)
        assert report["phases"]["other"] == 0.0

    def test_concurrent_children_do_not_oversubtract(self):
        # two threads overlap inside one parent: interval-union child
        # coverage keeps the parent's self-time exact
        rows = [
            _row("cli.demo", 1, None, 0.0, 10.0),
            _row("sosp_update.step2", 2, 1, 1.0, 7.0, thread=2),
            _row("sosp_update.step2", 3, 1, 2.0, 8.0, thread=3),
        ]
        report = attribute_trace(rows)
        # children cover [1, 8] -> driver self-time is 3, not 10-12
        assert report["phases"]["driver"] == pytest.approx(3.0)
        assert report["phases"]["step2"] == pytest.approx(12.0)
        assert report["coverage"] == pytest.approx(1.0)

    def test_empty_trace(self):
        report = attribute_trace([])
        assert report["wall_seconds"] == 0.0
        assert report["coverage"] == 0.0


class TestLoadTrace:
    def _spans(self):
        t = Tracer(recording=True)
        with use_tracer(t):
            with t.span("cli.demo"):
                with t.span("setup.load"):
                    pass
        return t.drain()

    def test_jsonl_and_chrome_agree(self, tmp_path):
        spans = self._spans()
        jl = tmp_path / "trace.jsonl"
        ch = tmp_path / "trace.json"
        export_jsonl(spans, jl)
        export_chrome_trace(spans, ch)
        r_jl = attribute_trace(load_trace(jl))
        r_ch = attribute_trace(load_trace(ch))
        assert r_jl["spans"] == r_ch["spans"] == 2
        assert r_jl["wall_seconds"] == pytest.approx(
            r_ch["wall_seconds"], abs=1e-6
        )
        assert r_ch["coverage"] == pytest.approx(1.0)

    def test_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"no": "trace"}))
        with pytest.raises(ReproError):
            load_trace(path)


class TestReportCommand:
    def _write_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        export_jsonl(_demo_rows(), path)
        return path

    def test_text_and_json_output(self, tmp_path):
        path = self._write_trace(tmp_path)
        out = io.StringIO()
        assert obs_main(["report", str(path)], out=out) == 0
        text = out.getvalue()
        assert "phase attribution" in text
        assert "step2" in text and "dispatch" in text
        out = io.StringIO()
        assert obs_main(["report", str(path), "--json"], out=out) == 0
        doc = json.loads(out.getvalue())
        assert doc["coverage"] == pytest.approx(1.0)

    def test_min_coverage_gate(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        export_jsonl([
            _row("cli.demo", 1, None, 0.0, 10.0),
            _row("mystery", 2, 1, 0.0, 9.0),
        ], path)
        out = io.StringIO()
        assert obs_main(
            ["report", str(path), "--min-coverage", "0.95"], out=out
        ) == 1
        assert "coverage gate FAILED" in out.getvalue()

    def test_render_text_mentions_workers(self):
        text = render_text(attribute_trace(_demo_rows()), source="x")
        assert "2 workers" in text
        assert "max skew" in text
