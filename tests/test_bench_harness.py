"""Tests for the benchmark harness (datasets, runner, figures, report).

The harness tests use a tiny synthetic spec (not the full Table 2
stand-ins) so the suite stays fast; full-size runs live under
``benchmarks/``.
"""

import pytest

from repro.bench.datasets import DATASETS, DatasetSpec, load_dataset
from repro.bench.figures import figure4_series, figure5_series, figure6_breakdown
from repro.bench.report import format_ms, render_series_table, render_table
from repro.bench.runner import record_mosp_trace
from repro.bench.tables import table2_rows
from repro.errors import BenchmarkError
from repro.parallel import replay_trace


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """Shrink one dataset spec for fast harness tests."""
    spec = DatasetSpec(
        name="tiny-road",
        paper_vertices=1_000_000,
        paper_edges=3_000_000,
        family="road",
        standin_n=400,
        seed=7,
    )
    DATASETS["tiny-road"] = spec
    yield "tiny-road"
    del DATASETS["tiny-road"]


class TestDatasets:
    def test_registry_matches_paper_table2(self):
        assert set(DATASETS) >= {
            "road-usa", "rgg-n-2-20-s0", "roadNet-CA", "roadNet-PA"
        }
        assert DATASETS["road-usa"].paper_vertices == 23_947_347
        assert DATASETS["roadNet-CA"].paper_edges == 5_533_214

    def test_scaled_batch_preserves_ratio(self):
        spec = DATASETS["roadNet-PA"]
        m = 30_000
        b = spec.scaled_batch_size(100_000, m)
        assert b == pytest.approx(m * 100_000 / spec.paper_edges, abs=1)

    def test_load_fresh_is_independent(self, tiny_dataset):
        a = load_dataset(tiny_dataset, fresh=True)
        b = load_dataset(tiny_dataset, fresh=True)
        a.add_edge(0, 1, (1.0, 1.0))
        assert a.num_edges == b.num_edges + 1

    def test_load_cached_same_object(self, tiny_dataset):
        assert load_dataset(tiny_dataset) is load_dataset(tiny_dataset)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(BenchmarkError):
            load_dataset("road-mars")


class TestTraceRecording:
    @pytest.fixture(scope="class")
    def trace(self, request):
        spec = DatasetSpec(
            name="trace-road", paper_vertices=10**6, paper_edges=3 * 10**6,
            family="road", standin_n=400, seed=3,
        )
        DATASETS["trace-road"] = spec
        request.addfinalizer(lambda: DATASETS.pop("trace-road"))
        return record_mosp_trace("trace-road", 100_000, seed=1)

    def test_metadata(self, trace):
        assert trace.dataset == "trace-road"
        assert trace.batch_size >= 1
        assert trace.num_vertices >= 400

    def test_replay_monotone_in_threads(self, trace):
        t1, t8 = trace.time_at(1), trace.time_at(8)
        assert t1 > t8 > 0

    def test_replay_at_one_thread_matches_engine(self, trace):
        # replaying the trace at T=1 must reproduce the recording
        # engine's own virtual time (same scheduler, same parameters)
        total = replay_trace(trace.trace, 1)
        assert total == pytest.approx(trace.time_at(1))

    def test_step_times_sum_to_total(self, trace):
        steps = trace.step_times_at(1)
        assert sum(steps.values()) == pytest.approx(trace.time_at(1), rel=1e-9)

    def test_step_keys(self, trace):
        assert set(trace.step_times_at(2)) == {
            "sosp_update_0", "sosp_update_1", "ensemble",
            "bellman_ford", "reassign",
        }

    def test_wall_times_come_from_span_stream(self, trace):
        # the recorder times the pipeline through tracer spans: the
        # root span is the wall clock, phase spans are the step clocks
        assert trace.wall_seconds > 0
        assert set(trace.step_wall_seconds) == set(trace.step_times_at(1))
        assert sum(trace.step_wall_seconds.values()) <= trace.wall_seconds

    def test_span_stream_recorded_and_exportable(self, trace, tmp_path):
        from repro.obs import export_chrome_trace, validate_chrome_trace

        names = {s["name"] for s in trace.spans}
        assert "bench.record_mosp_trace" in names
        assert "mosp_update.bellman_ford" in names
        assert "superstep" in names
        path = tmp_path / "bench_trace.json"
        assert export_chrome_trace(trace.spans, path) == len(trace.spans)
        assert validate_chrome_trace(path) == []


class TestFigureBuilders:
    @pytest.fixture(scope="class")
    def ds(self, request):
        spec = DatasetSpec(
            name="fig-road", paper_vertices=10**6, paper_edges=3 * 10**6,
            family="road", standin_n=300, seed=5,
        )
        DATASETS["fig-road"] = spec
        request.addfinalizer(lambda: DATASETS.pop("fig-road"))
        return "fig-road"

    def test_figure4_shape(self, ds):
        series = figure4_series(
            datasets=[ds], paper_batch_sizes=(50_000, 100_000),
            threads=(1, 2, 4),
        )
        assert set(series) == {ds}
        assert set(series[ds]) == {50_000, 100_000}
        pts = series[ds][50_000]
        assert [t for t, _ in pts] == [1, 2, 4]
        # time decreases with threads
        assert pts[0][1] > pts[-1][1]

    def test_figure4_trace_sharing(self, ds):
        traces = {}
        figure4_series(datasets=[ds], paper_batch_sizes=(100_000,),
                       threads=(1, 2), traces=traces)
        assert (ds, 100_000) in traces
        # reuse: no new recording needed (same dict, more threads)
        series = figure4_series(datasets=[ds],
                                paper_batch_sizes=(100_000,),
                                threads=(1, 2, 4, 8), traces=traces)
        assert len(series[ds][100_000]) == 4

    def test_figure5_speedups(self, ds):
        s = figure5_series(datasets=[ds], threads=(1, 2, 4, 8))
        pts = s[ds]
        assert pts[0] == (1, pytest.approx(1.0))
        assert all(sp >= 0.9 for _, sp in pts)
        assert pts[-1][1] > pts[0][1]  # some speedup by 8 threads

    def test_figure6_percentages(self, ds):
        br = figure6_breakdown(datasets=[ds], threads=4)
        steps = br[ds]
        assert set(steps) == {"SOSP1", "SOSP2", "Merge+BF"}
        assert sum(steps.values()) == pytest.approx(100.0)
        assert all(v >= 0 for v in steps.values())


class TestTable2:
    def test_rows_cover_all_datasets(self):
        rows = table2_rows(datasets=["roadNet-PA"])
        r = rows[0]
        assert r["name"] == "roadNet-PA"
        assert r["paper_vertices"] == 1_090_920
        assert r["standin_vertices"] > 0
        assert 1.0 < r["standin_avg_degree"] < 10.0


class TestReport:
    def test_render_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 222, "b": "z"}]
        text = render_table(rows, ["a", "b"])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert all(len(l) == len(lines[0]) for l in lines[1:])

    def test_render_empty(self):
        assert render_table([], ["a"]) == "(empty)"
        assert render_series_table({}) == "(empty)"

    def test_render_series(self):
        s = {"road": [(1, 10.0), (2, 5.0)], "rgg": [(1, 8.0), (2, 4.0)]}
        text = render_series_table(s)
        assert "threads" in text
        assert "road" in text and "rgg" in text
        assert "10.00" in text

    def test_format_ms_ranges(self):
        assert format_ms(12345.6) == "12,346"
        assert format_ms(12.345) == "12.35"
        assert format_ms(0.01234) == "0.0123"
