"""Shared fixtures for the benchmark suite.

- ``trace_cache`` (session-scoped): recorded MOSP-update executions,
  shared across the Figure 4/5/6 benchmarks so each (dataset, ΔE)
  configuration is executed exactly once per session.
- ``results_dir``: where each benchmark writes its rendered series
  (``results/*.txt``) for EXPERIMENTS.md.
- :func:`median_iqr`: the statistics of the scripts that gate on wall
  clock, taken read-only from perfbench so both read samples alike.

Run with ``pytest benchmarks/ --benchmark-only``.  Heavy pipelines use
``benchmark.pedantic(rounds=1)`` — the figures come from the simulated
machine's virtual clock, not from wall-time statistics, so repeated
execution would add nothing but heat.
"""

from __future__ import annotations

import os
import random
import sys
from pathlib import Path
from typing import Sequence, Tuple

import numpy as np
import pytest

from repro.bench.runner import set_bench_seed

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "results"
# the reference implementations the ablations compare against live in
# the test suite (``tests._sosp_reference``); make them importable
if str(REPO_ROOT) not in sys.path:
    sys.path.append(str(REPO_ROOT))

from perfbench.run import median, tail  # noqa: E402


def pytest_addoption(parser):
    parser.addoption(
        "--bench-seed",
        type=int,
        default=0,
        help="single seed for all benchmark randomness (batch "
        "generation via repro.bench.runner, plus the numpy/stdlib "
        "global generators)",
    )


@pytest.fixture(scope="session", autouse=True)
def bench_seed(request) -> int:
    """Seed every source of benchmark randomness exactly once.

    The value flows to :func:`repro.bench.runner.set_bench_seed` (picked
    up by every ``record_mosp_trace``/figure call that doesn't pin its
    own seed) and to the ``numpy``/``random`` global generators.
    """
    seed = int(request.config.getoption("--bench-seed"))
    set_bench_seed(seed)
    random.seed(seed)
    np.random.seed(seed)
    return seed


@pytest.fixture(scope="session")
def trace_cache():
    """(dataset, paper ΔE) → MOSPTrace, shared across bench modules."""
    return {}


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: Path, name: str, text: str) -> None:
    """Persist a rendered table and echo it to the terminal."""
    path = results_dir / name
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n=== {name} ===\n{text}\n")


def median_iqr(xs: Sequence[float]) -> Tuple[float, float]:
    """Median and interquartile range of repeated wall-clock runs."""
    return median(xs), tail(xs, 75)[0] - tail(xs, 25)[0]
