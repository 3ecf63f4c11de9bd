"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main
from repro.graph import DiGraph
from repro.graph.io import read_edge_list, write_edge_list
from tests._checked_env import engine_label


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def graph_file(tmp_path):
    g = DiGraph(4, k=2)
    g.add_edge(0, 1, (1.0, 4.0))
    g.add_edge(1, 2, (1.0, 4.0))
    g.add_edge(0, 2, (4.0, 1.0))
    g.add_edge(2, 3, (1.0, 1.0))
    p = tmp_path / "g.el"
    write_edge_list(g, p)
    return str(p)


class TestInfo:
    def test_exit_zero_and_mentions_paper(self):
        code, text = run(["info"])
        assert code == 0
        assert "3624062.3625134" in text
        assert "sosp_update" in text

    def test_engine_list_is_the_registry(self):
        code, text = run(["info"])
        assert code == 0
        assert "engines: serial, shm, simulated\n" in text

    def test_reports_observability_build(self):
        code, text = run(["info"])
        assert code == 0
        assert "observability: tracer passive" in text
        assert "clock time.perf_counter" in text
        assert "jsonl" in text and "chrome-trace" in text
        assert "prometheus" in text

    def test_reports_worker_span_capability_per_backend(self):
        code, text = run(["info"])
        assert code == 0
        line = [ln for ln in text.splitlines()
                if ln.startswith("worker spans:")][0]
        assert "shm collected" in line
        assert "serial inline" in line
        assert "simulated inline" in line


class TestGenerate:
    @pytest.mark.parametrize("family", ["road", "rgg", "er"])
    def test_families(self, family, tmp_path):
        out_file = tmp_path / "g.el"
        code, text = run(
            ["generate", family, str(out_file), "-n", "100", "--seed", "1"]
        )
        assert code == 0
        g = read_edge_list(out_file)
        assert g.num_vertices >= 100
        assert g.num_objectives == 2

    def test_er_edge_count(self, tmp_path):
        out_file = tmp_path / "g.el"
        run(["generate", "er", str(out_file), "-n", "50", "-m", "120"])
        assert read_edge_list(out_file).num_edges == 120


class TestSSSP:
    def test_summary(self, graph_file):
        code, text = run(["sssp", graph_file])
        assert code == 0
        assert "4/4 reachable" in text

    def test_path_output(self, graph_file):
        code, text = run(["sssp", graph_file, "--target", "3"])
        assert "0 -> 1 -> 2 -> 3" in text
        assert "distance: 3" in text

    def test_second_objective(self, graph_file):
        code, text = run(
            ["sssp", graph_file, "--target", "2", "--objective", "1"]
        )
        assert "0 -> 2" in text

    @pytest.mark.parametrize("algo", ["bellman_ford", "delta_stepping"])
    def test_algorithms(self, graph_file, algo):
        code, text = run(
            ["sssp", graph_file, "--target", "3", "--algorithm", algo]
        )
        assert code == 0 and "distance: 3" in text

    def test_missing_file_is_error(self):
        code, _ = run(["sssp", "/nonexistent.el"])
        assert code == 2

    def test_unreachable_target_is_error(self, tmp_path):
        g = DiGraph(3)
        g.add_edge(0, 1, 1.0)
        p = tmp_path / "g.el"
        write_edge_list(g, p)
        code, _ = run(["sssp", str(p), "--target", "2"])
        assert code == 2


class TestMOSP:
    def test_balanced(self, graph_file):
        code, text = run(["mosp", graph_file, "--target", "3"])
        assert code == 0
        assert "path:" in text and "cost:" in text
        assert "objective 0 optimum" in text

    def test_priority(self, graph_file):
        code, text = run(
            ["mosp", graph_file, "--target", "2",
             "--weighting", "priority", "--priorities", "100", "1"]
        )
        assert code == 0
        assert "0 -> 1 -> 2" in text

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_priority_is_error(self, graph_file, bad):
        code, _ = run(
            ["mosp", graph_file, "--target", "2",
             "--weighting", "priority", "--priorities", bad, "1"]
        )
        assert code == 2

    def test_simulated_engine(self, graph_file):
        code, _ = run(
            ["mosp", graph_file, "--target", "3",
             "--engine", "simulated", "--threads", "8"]
        )
        assert code == 0


class TestUpdateDemo:
    def test_synthetic_default(self):
        code, text = run(
            ["update-demo", "--steps", "2", "--batch-size", "10"]
        )
        assert code == 0
        assert "step 1:" in text and "step 2:" in text

    def test_from_file(self, tmp_path):
        g = DiGraph(20)
        for i in range(19):
            g.add_edge(i, i + 1, 1.0)
        p = tmp_path / "g.el"
        write_edge_list(g, p)
        code, text = run(
            ["update-demo", str(p), "--steps", "1", "--batch-size", "5"]
        )
        assert code == 0
        assert "20 vertices" in text

    def test_engine_selection(self):
        code, text = run(
            ["update-demo", "--steps", "1", "--batch-size", "5",
             "--engine", "simulated", "--threads", "2"]
        )
        assert code == 0
        assert f"engine: {engine_label('simulated')}" in text

    @pytest.mark.parametrize("name", ["partitioned", "processes", "threads"])
    def test_retired_engine_is_a_usage_error(self, name, capsys):
        for argv in (["update-demo"], ["serve"], ["serve-load"],
                     ["mosp", "g.txt", "--target", "1"]):
            with pytest.raises(SystemExit) as exc:
                run([*argv, "--engine", name])
            assert exc.value.code == 2, argv
            assert "invalid choice" in capsys.readouterr().err, argv

    @pytest.mark.parametrize("command", ["update-demo", "serve", "serve-load"])
    def test_min_dispatch_items_needs_shm(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run([command, "--engine", "serial", "--min-dispatch-items", "1"])
        assert exc.value.code == 2
        assert "--min-dispatch-items" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_update_demo_trace_is_valid_chrome_trace(self, tmp_path):
        from repro.obs import validate_chrome_trace

        trace = tmp_path / "trace.json"
        code, text = run(
            ["update-demo", "--steps", "2", "--batch-size", "10",
             "--trace", str(trace)]
        )
        assert code == 0
        assert f"trace events to {trace}" in text
        assert validate_chrome_trace(trace) == []

    def test_trace_spans_cover_steps_and_supersteps(self, tmp_path):
        import json

        trace = tmp_path / "trace.json"
        run(["update-demo", "--steps", "1", "--batch-size", "10",
             "--engine", "simulated", "--threads", "2",
             "--trace", str(trace)])
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"cli.update-demo", "sosp_update.step1",
                "sosp_update.step2", "superstep"} <= names
        by_id = {e["args"]["span_id"]: e for e in doc["traceEvents"]}
        for e in doc["traceEvents"]:
            if e["name"] != "superstep":
                continue
            parent = by_id[e["args"]["parent_id"]]
            assert parent["name"].startswith("sosp_update.step")
            assert "items" in e["args"]

    def test_jsonl_trace_variant(self, tmp_path):
        from repro.obs import read_jsonl

        trace = tmp_path / "spans.jsonl"
        code, text = run(
            ["update-demo", "--steps", "1", "--batch-size", "5",
             "--trace", str(trace)]
        )
        assert code == 0 and f"spans to {trace}" in text
        rows = read_jsonl(trace)
        assert any(r["name"] == "sosp_update.step2" for r in rows)

    def test_metrics_flag_writes_prometheus(self, tmp_path):
        from repro.obs import parse_prometheus

        prom = tmp_path / "m.prom"
        code, text = run(
            ["update-demo", "--steps", "2", "--batch-size", "10",
             "--metrics", str(prom)]
        )
        assert code == 0 and f"samples to {prom}" in text
        samples = parse_prometheus(prom.read_text())
        assert samples["sosp_updates_total"] == 2.0
        assert samples["engine_supersteps_total"] > 0

    def test_shm_merged_trace_has_worker_spans_and_coverage(self, tmp_path):
        """Acceptance: one merged Chrome trace from a real shm run —
        worker kernel spans as children of dispatching supersteps,
        validator-clean, and >=95% phase coverage via the report."""
        import json

        from repro.obs import validate_chrome_trace
        from repro.obs.__main__ import main as obs_main

        trace = tmp_path / "shm.json"
        code, _ = run(
            ["update-demo", "--steps", "1", "--batch-size", "30",
             "--engine", "shm", "--threads", "2",
             "--min-dispatch-items", "1", "--trace", str(trace)]
        )
        assert code == 0
        assert validate_chrome_trace(trace) == []
        doc = json.loads(trace.read_text())
        by_id = {e["args"]["span_id"]: e for e in doc["traceEvents"]}
        workers = [e for e in doc["traceEvents"]
                   if e["name"] == "worker.slab"]
        assert workers
        for w in workers:
            parent = by_id[w["args"]["parent_id"]]
            assert parent["name"] == "superstep"
            assert w["ts"] >= parent["ts"]
        out = io.StringIO()
        assert obs_main(
            ["report", str(trace), "--min-coverage", "0.95"], out=out
        ) == 0, out.getvalue()

    def test_mosp_trace(self, graph_file, tmp_path):
        from repro.obs import validate_chrome_trace

        trace = tmp_path / "mosp.json"
        code, _ = run(
            ["mosp", graph_file, "--target", "3", "--trace", str(trace)]
        )
        assert code == 0
        assert validate_chrome_trace(trace) == []

    def test_sssp_trace(self, graph_file, tmp_path):
        from repro.obs import validate_chrome_trace

        trace = tmp_path / "sssp.json"
        code, _ = run(["sssp", graph_file, "--trace", str(trace)])
        assert code == 0
        assert validate_chrome_trace(trace) == []


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
