"""Smoke tests: every example must run to completion and print the
expected landmarks.  Examples are sized for humans, so the heavier
ones are executed once with reduced scope via environment-free
subprocess runs (they are already small enough for CI)."""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, timeout=600):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "fastest" in out and "balanced" in out
    assert "after inserting 2 edges" in out
    # the inserted lean bypass must win the fuel objective
    assert "leanest   route 0->5: [0, 2, 5]" in out


def test_road_traffic():
    out = run_example("road_traffic.py")
    assert "eco-prio" in out        # rush-hour priority switch happened
    assert "per-objective optima" in out
    assert out.count("balanced") >= 3


def test_wsn_data_collection():
    out = run_example("wsn_data_collection.py")
    assert "latency-optimal" in out
    assert "energy-optimal" in out
    assert "balanced MOSP" in out
    assert "updated incrementally" in out


def test_drone_delivery():
    out = run_example("drone_delivery.py")
    # all of the paper's policy branches must appear across missions
    assert "fast" in out
    assert "lean" in out or "balanced" in out
    assert "recharge" in out


def test_pareto_alternatives():
    out = run_example("pareto_alternatives.py")
    assert "Pareto-optimal alternatives" in out
    assert "paper heuristic" in out
    assert "front read for another destination" in out
    assert "front labels changed" in out
