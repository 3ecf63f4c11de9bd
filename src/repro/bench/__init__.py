"""Benchmark harness: regenerates every table and figure of the paper.

Experiment index (see DESIGN.md §4 for the full mapping):

==========  ==========================================================
Table 2     dataset inventory — :func:`~repro.bench.tables.table2_rows`
Figure 4    time vs threads per (network, ΔE) —
            :func:`~repro.bench.figures.figure4_series`
Figure 5    speedup vs threads at ΔE=100K-scaled —
            :func:`~repro.bench.figures.figure5_series`
Figure 6    per-step % breakdown at 4 threads —
            :func:`~repro.bench.figures.figure6_breakdown`
==========  ==========================================================

plus the motivating-claim and ablation experiments under
``benchmarks/``, each of which renders a ``results/*.txt`` table.  All
series are produced on the simulated parallel machine (see
:mod:`repro.parallel.backends.simulated` and DESIGN.md §2 for why) from
*one* recorded execution per configuration, replayed across thread
counts, so their times are virtual.  Wall-clock claims are measured by
``perfbench/`` (``BENCHMARK.json``), not here.
"""

from repro.bench.datasets import DATASETS, DatasetSpec, load_dataset
from repro.bench.figures import (
    figure4_series,
    figure5_series,
    figure6_breakdown,
)
from repro.bench.report import render_series_table, render_table
from repro.bench.runner import MOSPTrace, record_mosp_trace
from repro.bench.tables import table2_rows

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "load_dataset",
    "record_mosp_trace",
    "MOSPTrace",
    "figure4_series",
    "figure5_series",
    "figure6_breakdown",
    "table2_rows",
    "render_table",
    "render_series_table",
]
