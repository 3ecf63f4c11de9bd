"""The interprocedural analyzer: R006-R007, formats, baseline, jobs.

Complements ``test_analysis_linter.py`` (the per-rule fixture-corpus
contract) with the machinery the deep rules ride on: write-set
inference through helper calls, report renderers and the SARIF
self-validation, the findings baseline, deterministic parallel runs,
and the stale-noqa pass.
"""

import json
import pickle
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    infer_ref_writes,
    lint_file,
    lint_paths,
    lint_source,
    load_baseline,
    render_findings,
    render_github,
    render_json,
    render_sarif,
    save_baseline,
    split_baselined,
    validate_sarif,
)

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
REPO_ROOT = Path(__file__).parents[1]


def fixture_findings(name, code):
    return lint_file(
        str(FIXTURES / name), select={code}, respect_scope=False
    )


class TestR006WriteSets:
    def test_direct_undeclared_write_detected(self):
        findings = fixture_findings("r006_bad.py", "R006")
        assert any(
            "undeclared_kernel" in f.message and "marked" in f.message
            for f in findings
        )

    def test_helper_level_write_detected(self):
        # the acceptance case: the kernel itself never touches 'aux';
        # only the helper it passes the view to does
        findings = fixture_findings("r006_bad.py", "R006")
        helper = [f for f in findings if "helper_kernel" in f.message]
        assert len(helper) == 1
        assert "aux" in helper[0].message
        assert helper[0].severity == "error"

    def test_stale_declaration_is_warning(self):
        findings = fixture_findings("r006_bad.py", "R006")
        stale = [
            f for f in findings
            if "never_writes_marked_kernel" in f.message
        ]
        assert len(stale) == 1
        assert stale[0].severity == "warning"
        assert "never writes" in stale[0].message

    def test_phantom_declaration_is_error(self):
        findings = fixture_findings("r006_bad.py", "R006")
        phantom = [
            f for f in findings
            if "phantom_kernel" in f.message and f.severity == "error"
        ]
        assert len(phantom) == 1
        assert "absent from task.arrays" in phantom[0].message

    def test_dict_bound_arrays_are_read_by_key(self):
        # SlabTask.arrays binds name -> ndarray; the phantom and the
        # undeclared-write checks read the names off the dict's keys
        src = (
            "from repro.parallel.api import SlabTask\n\n\n"
            "def kern(arrays, params, lo, hi):\n"
            "    arrays['dist'][lo:hi] = 0.0\n"
            "    arrays['aux'][lo:hi] = 1.0\n"
            "    return hi - lo\n\n\n"
            "def go(engine, d, a):\n"
            "    engine.parallel_for_slabs(8, SlabTask(\n"
            "        ref='tests.fx:kern', arrays={'dist': d, 'aux': a},\n"
            "        writes=('dist', 'ghost')))\n"
        )
        findings = lint_source(
            src, path="tests/fx.py", select={"R006"}, respect_scope=False
        )
        messages = [f.message for f in findings if f.severity == "error"]
        assert any("ghost" in m and "absent from task.arrays" in m
                   for m in messages), messages
        assert any("aux" in m and "not declared" in m for m in messages)

    def test_shipped_kernels_pass(self):
        # meta-test: the real dispatch sites must satisfy their own rule
        for rel in ("src/repro/core/kernels.py", "src/repro/core/ensemble.py"):
            findings = lint_file(str(REPO_ROOT / rel), select={"R006"})
            assert findings == [], "\n".join(f.format() for f in findings)

    def test_inference_matches_shipped_declaration(self):
        ws = infer_ref_writes("repro.core.kernels:_relax_groups_slab")
        assert ws is not None and ws.complete
        assert ws.writes == frozenset(
            {"sosp.dist", "sosp.parent", "sosp.marked"}
        )

    def test_sosp_kernels_infer_full_write_set(self):
        ws = infer_ref_writes("repro.core.kernels:_propagate_relax_slab")
        assert ws is not None
        assert ws.writes == frozenset(
            {"sosp.dist", "sosp.parent", "sosp.marked"}
        )


class TestR007Scoping:
    def test_engine_vars_do_not_leak_across_functions(self):
        # a SharedMemoryEngine-bound name in one function must not taint the
        # same name bound to an in-process engine in a sibling
        src = (
            "from repro.parallel.backends.shm import SharedMemoryEngine\n"
            "from repro.parallel.backends.serial import SerialEngine\n\n\n"
            "def uses_shm(items):\n"
            "    eng = SharedMemoryEngine(threads=2)\n"
            "    return eng.parallel_for(items, _task)\n\n\n"
            "def uses_serial(items):\n"
            "    eng = SerialEngine()\n"
            "    return eng.parallel_for(items, lambda x: x)\n\n\n"
            "def _task(x):\n"
            "    return x\n"
        )
        findings = lint_source(
            src, path="tests/fx.py", select={"R007"}, respect_scope=False
        )
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_enclosing_engine_visible_to_nested_scope(self):
        src = (
            "from repro.parallel.backends.shm import SharedMemoryEngine\n"
            "\n\ndef outer(items):\n"
            "    eng = SharedMemoryEngine(threads=2)\n\n"
            "    def run():\n"
            "        return eng.parallel_for(items, lambda x: x)\n\n"
            "    return run()\n"
        )
        findings = lint_source(
            src, path="tests/fx.py", select={"R007"}, respect_scope=False
        )
        assert len(findings) == 1 and "lambda" in findings[0].message


SAMPLE = [
    Finding(path="src/repro/core/x.py", line=3, col=5, code="R006",
            message="drift", hint="declare it"),
    Finding(path="tests/t.py", line=9, col=1, code="R007",
            message="lambda", hint="hoist it", severity="warning"),
]


class TestFormats:
    def test_json_round_trips(self):
        doc = json.loads(render_json(SAMPLE))
        assert doc["count"] == 2
        assert doc["findings"][0]["code"] == "R006"

    def test_github_workflow_commands(self):
        lines = render_github(SAMPLE).splitlines()
        assert lines[0].startswith("::error file=src/repro/core/x.py,line=3,")
        assert lines[1].startswith("::warning file=tests/t.py,")
        assert "title=R006" in lines[0]

    def test_sarif_emitted_document_validates(self):
        doc = json.loads(render_sarif(SAMPLE))
        assert validate_sarif(doc) == []
        results = doc["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["R006", "R007"]
        assert results[0]["level"] == "error"
        assert results[1]["level"] == "warning"

    def test_sarif_validator_rejects_malformed(self):
        doc = json.loads(render_sarif(SAMPLE))
        doc["runs"][0]["results"][0]["ruleId"] = "R999"
        del doc["runs"][0]["results"][1]["message"]
        problems = validate_sarif(doc)
        assert any("R999" in p for p in problems)
        assert any("message.text" in p for p in problems)
        assert validate_sarif({"version": "2.1.0"})  # runs missing
        assert validate_sarif([1, 2])  # not an object

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError, match="unknown format"):
            render_findings(SAMPLE, "xml")


class TestBaseline:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "baseline.json"
        save_baseline(str(p), SAMPLE)
        fps = load_baseline(str(p))
        assert fps == {f.fingerprint for f in SAMPLE}

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) == set()

    def test_split_partitions(self, tmp_path):
        p = tmp_path / "baseline.json"
        save_baseline(str(p), SAMPLE[:1])
        new, old = split_baselined(SAMPLE, load_baseline(str(p)))
        assert new == SAMPLE[1:]
        assert old == SAMPLE[:1]

    def test_fingerprint_is_line_number_free(self):
        moved = Finding(path=SAMPLE[0].path, line=99, col=2,
                        code=SAMPLE[0].code, message=SAMPLE[0].message,
                        hint=SAMPLE[0].hint)
        assert moved.fingerprint == SAMPLE[0].fingerprint

    def test_committed_baseline_is_empty(self):
        # repo policy: fix or suppress with justification, never
        # grandfather — the committed baseline must stay empty
        doc = json.loads(
            (REPO_ROOT / "analysis-baseline.json").read_text()
        )
        assert doc["findings"] == []


class TestFindingContract:
    def test_picklable(self):
        for f in SAMPLE:
            assert pickle.loads(pickle.dumps(f)) == f

    def test_stable_ordering(self):
        shuffled = [SAMPLE[1], SAMPLE[0]]
        assert sorted(shuffled, key=lambda f: f.sort_key) == SAMPLE


class TestJobs:
    def _tree(self, tmp_path):
        d = tmp_path / "src" / "repro" / "core"
        d.mkdir(parents=True)
        (d / "a.py").write_text(
            "import time\n\n\ndef f() -> float:\n    return time.time()\n"
        )
        (d / "b.py").write_text(
            "def g(x):\n    return x\n"
        )
        return tmp_path

    def test_parallel_matches_serial(self, tmp_path):
        root = self._tree(tmp_path)
        serial = lint_paths([str(root)], jobs=1)
        parallel = lint_paths([str(root)], jobs=2)
        assert serial == parallel
        findings, errors = serial
        assert errors == []
        # path order: a.py's R005, then b.py's two R004s (param + return)
        assert [f.code for f in findings] == ["R005", "R004", "R004"]


class TestStaleNoqa:
    SRC = "def f(x: int) -> int:\n    return x  # repro: noqa(R003)\n"

    def test_stale_suppression_reported(self):
        findings = lint_source(self.SRC, path="src/repro/core/x.py")
        assert [f.code for f in findings] == ["R000"]
        assert findings[0].severity == "warning"
        assert "matches no finding" in findings[0].message

    def test_opt_out(self):
        assert lint_source(
            self.SRC, path="src/repro/core/x.py", stale_noqa=False
        ) == []

    def test_live_suppression_not_stale(self):
        src = (
            "def f() -> None:\n    try:\n        pass\n"
            "    except:  # repro: noqa(R003)\n        pass\n"
        )
        assert lint_source(src, path="src/repro/core/x.py") == []

    def test_narrow_select_skips_staleness(self):
        # without R000 selected, unused suppressions are indistinguishable
        # from suppressions of unselected rules — stay silent
        assert lint_source(
            self.SRC, path="src/repro/core/x.py", select={"R003"}
        ) == []

    def test_prose_mention_is_not_a_suppression(self):
        src = (
            '"""Docs may say # repro: noqa without suppressing."""\n'
            "X = 1  # see the repro: noqa docs\n"
        )
        assert lint_source(src, path="src/repro/core/x.py") == []


class TestCLI:
    def run_cli(self, *args, cwd=None):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True, text=True, cwd=cwd or REPO_ROOT, env=env,
        )

    def _bad_tree(self, tmp_path):
        d = tmp_path / "src" / "repro" / "core"
        d.mkdir(parents=True)
        (d / "x.py").write_text(
            "import time\n\n\ndef f() -> float:\n    return time.time()\n"
        )
        return tmp_path

    def test_unknown_rule_code_exits_two(self):
        proc = self.run_cli("--rules", "R999", "src")
        assert proc.returncode == 2
        assert "unknown rule code(s): R999" in proc.stderr
        assert "R001" in proc.stderr  # names the valid registry

    def test_rules_alias_matches_select(self):
        a = self.run_cli("--rules", "R005", "src")
        b = self.run_cli("--select", "R005", "src")
        assert (a.returncode, a.stdout) == (b.returncode, b.stdout)

    def test_sarif_output_validates_itself(self, tmp_path):
        root = self._bad_tree(tmp_path)
        out = tmp_path / "report.sarif"
        proc = self.run_cli(
            "--format", "sarif", "--output", str(out), "--no-baseline",
            str(root),
        )
        assert proc.returncode == 1, proc.stderr
        doc = json.loads(out.read_text())
        assert validate_sarif(doc) == []
        assert doc["runs"][0]["results"][0]["ruleId"] == "R005"

    def test_github_format(self, tmp_path):
        root = self._bad_tree(tmp_path)
        proc = self.run_cli("--format", "github", "--no-baseline", str(root))
        assert proc.returncode == 1
        assert proc.stdout.startswith("::error file=")

    def test_update_baseline_then_clean(self, tmp_path):
        root = self._bad_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        proc = self.run_cli(
            "--baseline", str(baseline), "--update-baseline", str(root)
        )
        assert proc.returncode == 0, proc.stderr
        proc = self.run_cli("--baseline", str(baseline), str(root))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "baselined finding" in proc.stderr

    def test_jobs_output_deterministic(self, tmp_path):
        root = self._bad_tree(tmp_path)
        (root / "src" / "repro" / "core" / "y.py").write_text(
            "def g(x):\n    return x\n"
        )
        serial = self.run_cli("--no-baseline", str(root))
        parallel = self.run_cli("--no-baseline", "--jobs", "2", str(root))
        assert serial.stdout == parallel.stdout
        assert serial.returncode == parallel.returncode == 1

    def test_bad_jobs_exits_two(self):
        proc = self.run_cli("--jobs", "0", "src")
        assert proc.returncode == 2

    def test_no_stale_noqa_flag(self, tmp_path):
        d = tmp_path / "src" / "repro" / "core"
        d.mkdir(parents=True)
        (d / "x.py").write_text(
            "def f(x: int) -> int:\n    return x  # repro: noqa(R003)\n"
        )
        strict = self.run_cli("--no-baseline", str(tmp_path))
        relaxed = self.run_cli(
            "--no-baseline", "--no-stale-noqa", str(tmp_path)
        )
        assert strict.returncode == 1 and "R000" in strict.stdout
        assert relaxed.returncode == 0, relaxed.stdout + relaxed.stderr
