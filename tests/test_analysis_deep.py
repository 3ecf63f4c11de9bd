"""The interprocedural analyzer: R006-R007 and the stale-noqa pass.

Complements ``test_analysis_linter.py`` (the per-rule fixture-corpus
contract) with the machinery the deep rules ride on: write-set
inference through helper calls, scoping of engine bindings, finding
order, and R000.
"""

from pathlib import Path

from repro.analysis import Finding, infer_ref_writes, lint_file, lint_source

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


class TestFindingContract:
    def test_stable_ordering(self):
        shuffled = [SAMPLE[1], SAMPLE[0]]
        assert sorted(shuffled, key=lambda f: f.sort_key) == SAMPLE


class TestStaleNoqa:
    SRC = "def f(x: int) -> int:\n    return x  # repro: noqa(R003)\n"

    def test_stale_suppression_reported(self):
        findings = lint_source(self.SRC, path="src/repro/core/x.py")
        assert [f.code for f in findings] == ["R000"]
        assert findings[0].severity == "warning"
        assert "matches no finding" in findings[0].message

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
    def run_cli(self, *args):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True, text=True, cwd=REPO_ROOT, env=env,
        )

    def test_unknown_rule_code_exits_two(self):
        proc = self.run_cli("--select", "R999", "src")
        assert proc.returncode == 2
        assert "unknown rule code(s): R999" in proc.stderr
        assert "R001" in proc.stderr  # names the valid registry

    def test_missing_path_exits_two(self):
        proc = self.run_cli("no/such/dir")
        assert proc.returncode == 2
        assert "no such file" in proc.stderr
