"""Round-trip and schema tests for the three span/metric exporters."""

import json

from repro.obs import (
    MetricsRegistry,
    Tracer,
    export_chrome_trace,
    export_jsonl,
    export_prometheus,
    parse_prometheus,
    read_jsonl,
    use_tracer,
    validate_chrome_trace,
)


def _record_spans():
    t = Tracer(recording=True)
    with use_tracer(t):
        with t.span("phase", step="step2"):
            with t.span("superstep", items=4, work_p95=2.0):
                pass
    return t.drain()


class TestJSONL:
    def test_round_trip(self, tmp_path):
        spans = _record_spans()
        path = tmp_path / "spans.jsonl"
        n = export_jsonl(spans, path)
        assert n == 2
        rows = read_jsonl(path)
        assert [r["name"] for r in rows] == ["superstep", "phase"]
        assert rows == [s.to_dict() for s in spans]
        # parent linkage survives the round trip
        assert rows[0]["parent_id"] == rows[1]["span_id"]


class TestChromeTrace:
    def test_export_validates(self, tmp_path):
        spans = _record_spans()
        path = tmp_path / "trace.json"
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        n = export_chrome_trace(spans, path, metrics=reg)
        assert n == 2
        assert validate_chrome_trace(path) == []
        doc = json.loads(path.read_text())
        assert doc["otherData"]["metrics"]["c"] == 3.0
        # timestamps rebased: earliest event starts at 0 µs
        assert min(e["ts"] for e in doc["traceEvents"]) == 0.0

    def test_attrs_and_ids_land_in_args(self, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome_trace(_record_spans(), path)
        doc = json.loads(path.read_text())
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        assert by_name["superstep"]["args"]["items"] == 4
        assert by_name["superstep"]["args"]["parent_id"] == (
            by_name["phase"]["args"]["span_id"]
        )

    def test_open_spans_are_skipped(self, tmp_path):
        rows = [s.to_dict() for s in _record_spans()]
        rows.append({"name": "open", "span_id": 999, "parent_id": None,
                     "start": 1.0, "end": None, "elapsed": 0.0,
                     "thread": 1, "attrs": {}})
        path = tmp_path / "trace.json"
        assert export_chrome_trace(rows, path) == 2

    def test_validator_catches_corruption(self, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome_trace(_record_spans(), path)
        doc = json.loads(path.read_text())
        doc["traceEvents"][0]["ph"] = "B"
        del doc["traceEvents"][1]["args"]["span_id"]
        doc["traceEvents"].append({"name": "", "ph": "X", "ts": -1,
                                   "dur": "x", "pid": 0, "tid": "t",
                                   "args": {}})
        problems = validate_chrome_trace(doc)
        assert any("ph is 'B'" in p for p in problems)
        assert any("span_id" in p for p in problems)
        assert any("ts is not a non-negative number" in p
                   for p in problems)
        assert any("tid is not an integer" in p for p in problems)

    def test_validator_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        problems = validate_chrome_trace(path)
        assert problems and problems[0].startswith("not JSON")

    def test_validator_rejects_wrong_shapes(self):
        assert validate_chrome_trace([]) == ["top level is not an object"]
        assert validate_chrome_trace({}) == ["missing traceEvents list"]
        assert validate_chrome_trace(
            {"traceEvents": ["nope"]}
        ) == ["traceEvents[0]: not an object"]


class TestPrometheus:
    def test_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("updates_total", "updates").inc(3)
        reg.gauge("frontier", "current frontier").set(17)
        h = reg.histogram("batch", "batch sizes")
        for v in (10, 20, 30):
            h.observe(v)
        path = tmp_path / "metrics.prom"
        n = export_prometheus(reg, path)
        samples = parse_prometheus(path.read_text())
        assert n == len(samples) == 6
        assert samples["updates_total"] == 3.0
        assert samples["frontier"] == 17.0
        assert samples['batch{quantile="0.50"}'] == 20.0
        assert samples["batch_sum"] == 60.0
        assert samples["batch_count"] == 3.0

    def test_empty_registry(self, tmp_path):
        path = tmp_path / "m.prom"
        assert export_prometheus(MetricsRegistry(), path) == 0
        assert parse_prometheus(path.read_text()) == {}

    def test_help_and_type_comments_present(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c_total", "my help").inc()
        text = reg.to_prometheus()
        assert "# HELP c_total my help" in text
        assert "# TYPE c_total counter" in text

    def test_labelled_series_share_one_family_header(self):
        from repro.obs.metrics import labeled_name

        reg = MetricsRegistry()
        for path in ("inline", "dispatched"):
            reg.counter(
                labeled_name("shm_supersteps_total", {"path": path}),
                "slab supersteps by path",
            ).inc()
        worker = MetricsRegistry()
        worker.counter("worker_tasks_total", "tasks in workers").inc(2)
        worker.histogram("worker_slab_items", "items per slab").observe(8)
        for pid in ("11", "12"):
            reg.merge_deltas(worker.deltas(), labels={"worker": pid})
        text = reg.to_prometheus()
        types = [l.split()[2] for l in text.splitlines()
                 if l.startswith("# TYPE ")]
        assert sorted(types) == [
            "shm_supersteps_total", "worker_slab_items", "worker_tasks_total",
        ]
        assert "# HELP shm_supersteps_total slab supersteps by path" in text
        assert "{" not in "".join(l for l in text.splitlines()
                                  if l.startswith("#"))
        samples = parse_prometheus(text)
        assert samples['shm_supersteps_total{path="inline"}'] == 1.0
        assert samples['worker_tasks_total{worker="11"}'] == 2.0
        assert samples[
            'worker_slab_items{worker="12",quantile="0.50"}'
        ] == 8.0
        assert samples['worker_slab_items_count{worker="12"}'] == 1.0


class TestParentTimeConsistency:
    """Skewed-clock fixtures: a merged worker span whose timestamps were
    rebased with a broken (or unclamped) clock offset starts before its
    parent superstep — the validator must reject exactly that."""

    @staticmethod
    def _doc(child_ts):
        return {
            "traceEvents": [
                {"name": "superstep", "ph": "X", "ts": 1000.0, "dur": 500.0,
                 "pid": 0, "tid": 0, "args": {"span_id": 1}},
                {"name": "worker.slab", "ph": "X", "ts": child_ts,
                 "dur": 50.0, "pid": 0, "tid": 4711,
                 "args": {"span_id": 2, "parent_id": 1, "worker": "4711"}},
            ]
        }

    def test_rejects_child_starting_before_parent(self):
        problems = validate_chrome_trace(self._doc(child_ts=900.0))
        assert problems == [
            "traceEvents[1]: ts 900.0 precedes parent span 1's start 1000.0"
        ]

    def test_accepts_aligned_child(self):
        assert validate_chrome_trace(self._doc(child_ts=1000.0)) == []
        assert validate_chrome_trace(self._doc(child_ts=1200.0)) == []

    def test_unresolvable_parent_id_is_not_checked(self):
        doc = self._doc(child_ts=900.0)
        doc["traceEvents"][1]["args"]["parent_id"] = 99  # dangling
        assert validate_chrome_trace(doc) == []

    def test_skewed_merge_caught_end_to_end(self, tmp_path):
        """An unclamped negative-offset merge writes a child that leads
        its parent; the exported file must fail validation."""
        rows = [s.to_dict() for s in _record_spans()]
        parent = rows[1]
        skewed = {
            "name": "worker.slab", "span_id": 777,
            "parent_id": parent["span_id"],
            "start": parent["start"] - 10.0,
            "end": parent["start"] - 9.0, "elapsed": 1.0,
            "thread": 4711, "attrs": {"worker": "4711"},
        }
        path = tmp_path / "skewed.json"
        export_chrome_trace(rows + [skewed], path)
        problems = validate_chrome_trace(path)
        assert len(problems) == 1
        assert "precedes parent span" in problems[0]
