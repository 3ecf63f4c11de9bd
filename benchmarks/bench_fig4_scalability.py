"""Figure 4 — Scalability Analysis (time vs threads per network).

The paper's strong-scaling study: wall time of the MOSP update
(bi-objective, both SOSP trees + merge + Bellman-Ford) against 1–64
OpenMP threads for ΔE ∈ {50K, 100K, 200K}, one panel per network.

Here each (network, ΔE) configuration is executed once on the
trace-recording simulated machine and replayed across thread counts
(identical task graph, different schedule — see DESIGN.md §2).  The
expected shape, as in the paper:

- time decreases with threads, flattening past ~16–32;
- the large sparse road-usa scales best; smaller graphs scale less.

One deviation is expected and documented (EXPERIMENTS.md): the paper's
ΔE legend orders 50K < 100K < 200K in time, while at stand-in scale
the batch-size ordering is non-monotonic — uniform-random insertions
are global teleports on a road network, and past a density threshold
*more* insertions shrink the effective diameter enough that the
propagation cascade (and hence total work) stops growing.  The 1000×
larger paper graphs sit below that threshold.  The table reports the
measured ordering; the assertion covers the thread-scaling claims.
"""

import pytest

from conftest import write_result
from repro.bench import figure4_series, render_series_table
from repro.bench.datasets import DATASETS, PAPER_BATCH_SIZES
from repro.bench.figures import DEFAULT_THREADS
from repro.bench.plotting import ascii_line_chart


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_figure4_panel(benchmark, dataset, trace_cache, results_dir):
    """One Figure-4 panel: ΔE ∈ {50K,100K,200K} series for ``dataset``."""
    series = benchmark.pedantic(
        lambda: figure4_series(
            datasets=[dataset],
            paper_batch_sizes=PAPER_BATCH_SIZES,
            threads=DEFAULT_THREADS,
            traces=trace_cache,
        ),
        rounds=1,
        iterations=1,
    )
    panel = series[dataset]
    labelled = {
        f"dE={de // 1000}K (virtual ms)": pts for de, pts in sorted(panel.items())
    }
    text = render_series_table(labelled)
    chart = ascii_line_chart(
        labelled, title=f"Figure 4: {dataset} — time vs threads",
        x_label="threads", y_label="virtual ms", log_x=True,
    )
    write_result(results_dir, f"fig4_{dataset}.txt", text + "\n\n" + chart)

    # shape assertions (the paper's thread-scaling claims)
    for de, pts in panel.items():
        times = dict(pts)
        assert times[64] < times[1], (
            f"{dataset} dE={de}: no speedup at 64 threads"
        )
        # broadly monotone: every doubling up to 16 threads helps
        assert times[2] < times[1]
        assert times[4] < times[2]
        assert times[16] < times[8]
