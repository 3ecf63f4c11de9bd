"""The fixture-corpus contract for the concurrency-invariant linter.

Each rule must (a) fire on its bad fixture, (b) stay silent on its
good fixture, and (c) respect ``# repro: noqa`` suppressions.  The
fixtures live in ``tests/fixtures/analysis/`` and are excluded from
the repo-wide walk precisely because they contain violations.
"""

from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, Finding, lint_file, lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
CODES = [rule.code for rule in ALL_RULES]


def fixture_findings(name, code):
    return lint_file(
        str(FIXTURES / name), select={code}, respect_scope=False
    )


class TestFixtureCorpus:
    @pytest.mark.parametrize("code", CODES)
    def test_bad_fixture_fires(self, code):
        name = f"{code.lower()}_bad.py"
        findings = fixture_findings(name, code)
        assert findings, f"{name} produced no {code} findings"
        assert {f.code for f in findings} == {code}

    @pytest.mark.parametrize("code", CODES)
    def test_good_fixture_clean(self, code):
        name = f"{code.lower()}_good.py"
        assert fixture_findings(name, code) == []

    def test_r001_flags_every_untracked_task(self):
        # one finding per untracked mutation site in the bad fixture
        findings = fixture_findings("r001_bad.py", "R001")
        assert len(findings) == 4

    def test_noqa_fixture_fully_suppressed(self):
        findings = lint_file(
            str(FIXTURES / "noqa_suppressed.py"), respect_scope=False
        )
        assert findings == []


class TestNoqaSemantics:
    def test_targeted_noqa_wrong_code_does_not_suppress(self):
        src = "try:\n    pass\nexcept:  # repro: noqa(R001)\n    pass\n"
        findings = lint_source(
            src, path="src/repro/core/x.py", select={"R003"}
        )
        assert [f.code for f in findings] == ["R003"]

    def test_blanket_noqa_suppresses_any_code(self):
        src = "try:\n    pass\nexcept:  # repro: noqa\n    pass\n"
        assert lint_source(src, path="src/repro/core/x.py") == []

    def test_case_insensitive(self):
        src = "try:\n    pass\nexcept:  # REPRO: NOQA(r003)\n    pass\n"
        assert lint_source(src, path="src/repro/core/x.py") == []


class TestScoping:
    def test_src_rules_skip_files_outside_repro(self):
        src = "import time\n\n\ndef f():\n    return time.time()\n"
        assert lint_source(src, path="scripts/standalone.py") == []

    def test_r005_exempts_bench(self):
        src = "import time\n\n\ndef stamp():\n    return time.time()\n"
        assert (
            lint_source(src, path="src/repro/bench/run.py", select={"R005"})
            == []
        )
        assert lint_source(
            src, path="src/repro/core/run.py", select={"R005"}
        )

    def test_r005_exempts_obs(self):
        # repro/obs is the sanctioned clock module: any clock read is
        # fine there, and nowhere else inside repro/
        src = (
            "import time\n\n\ndef perf():\n"
            "    return time.perf_counter()\n"
        )
        assert (
            lint_source(src, path="src/repro/obs/clock.py", select={"R005"})
            == []
        )
        assert lint_source(
            src, path="src/repro/core/run.py", select={"R005"}
        )

    def test_r005_flags_all_clock_reads(self):
        # perf_counter/monotonic reads (and aliased from-imports) are
        # clock reads, same as time.time
        src = (
            "import time\n"
            "from time import monotonic as now\n\n\n"
            "def f():\n"
            "    return time.perf_counter() + now()\n"
        )
        findings = lint_source(
            src, path="src/repro/core/x.py", select={"R005"}
        )
        messages = [f.message for f in findings]
        assert any("monotonic" in m and "import" in m for m in messages)
        assert any("time.perf_counter()" in m for m in messages)
        assert any("now() clock" in m for m in messages)

    def test_r005_allows_sleep(self):
        src = "import time\n\n\ndef f():\n    time.sleep(0.01)\n"
        assert (
            lint_source(src, path="src/repro/core/x.py", select={"R005"})
            == []
        )

    def test_r004_limited_to_typed_core(self):
        src = "def f(x):\n    return x\n"
        assert (
            lint_source(src, path="src/repro/io/loaders.py", select={"R004"})
            == []
        )
        assert lint_source(
            src, path="src/repro/graph/new.py", select={"R004"}
        )

    def test_analysis_package_exempt_from_src_rules(self):
        # the linter may use broad except internally to report errors
        src = "try:\n    pass\nexcept Exception:\n    pass\n"
        assert (
            lint_source(src, path="src/repro/analysis/x.py", select={"R003"})
            == []
        )


class TestRunner:
    def test_repo_is_clean(self):
        findings, errors = lint_paths(["src", "tests"])
        assert errors == []
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_fixtures_excluded_from_walk(self):
        findings, errors = lint_paths([str(FIXTURES)])
        assert findings == [] and errors == []

    def test_missing_path_reported(self):
        _, errors = lint_paths(["no/such/dir"])
        assert errors and "no such file" in errors[0]

    def test_syntax_error_reported_not_swallowed(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(:\n")
        findings, errors = lint_paths([str(tmp_path)])
        assert findings == []
        assert len(errors) == 1 and "syntax error" in errors[0]

    def test_undecodable_file_reported(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "latin1.py"
        bad.parent.mkdir(parents=True)
        bad.write_bytes(b"X = '\xe9'\n")
        findings, errors = lint_paths([str(tmp_path)])
        assert findings == []
        assert len(errors) == 1 and "unreadable" in errors[0]

    def test_finding_format_shape(self):
        f = Finding(
            path="src/repro/core/x.py", line=3, col=5, code="R001",
            message="msg", hint="do better",
        )
        assert f.format() == (
            "src/repro/core/x.py:3:5: R001 msg  [fix: do better]"
        )

    def test_select_filters_rules(self):
        src = (
            "import time\n\n\ndef f(x):\n"
            "    return time.time() + x\n"
        )
        findings = lint_source(
            src, path="src/repro/core/x.py", select={"R005"}
        )
        assert {f.code for f in findings} == {"R005"}


class TestCLI:
    REPO_ROOT = Path(__file__).parents[1]

    def run_cli(self, *args):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = str(self.REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True, text=True, cwd=self.REPO_ROOT, env=env,
        )

    def test_clean_repo_exits_zero(self):
        # the paths CI lints
        proc = self.run_cli("src", "tests", "benchmarks", "examples")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == ""

    def test_findings_exit_one(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core" / "x.py"
        bad.parent.mkdir(parents=True)
        for source, code in [
            ("import time\n\n\ndef f() -> float:\n"
             "    return time.time()\n", "R005"),
            # a lone stale suppression is a warning, and still fails
            ("def f(x: int) -> int:\n"
             "    return x  # repro: noqa(R003)\n", "R000"),
        ]:
            bad.write_text(source)
            proc = self.run_cli(str(tmp_path))
            assert proc.returncode == 1, (code, proc.stdout, proc.stderr)
            assert code in proc.stdout

    def test_list_rules(self):
        proc = self.run_cli("--list-rules")
        assert proc.returncode == 0
        for code in CODES:
            assert code in proc.stdout
