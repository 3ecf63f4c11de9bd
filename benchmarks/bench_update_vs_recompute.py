"""Motivating claim (§2.2): updating an SOSP beats recomputing it.

"It has been observed that in a dynamic network, updating an SOSP
requires less time than recomputing it from scratch when changes occur
in the network topology [17]."

The claim has two regimes, and this benchmark reports both:

- **redundant batches** (new edges that improve no shortest path — the
  overwhelmingly common case for real road updates): the update costs
  one scan of ΔE, orders of magnitude below a from-scratch Dijkstra.
- **local batches** (endpoints a short walk apart — new local
  streets): improvements are small but their downstream *shadows* can
  still span much of the graph when they land near the source, so the
  update's work approaches (and can exceed) a recompute at stand-in
  scale, while remaining superstep-parallel.
- **teleport batches** (uniform random endpoints, the paper's ΔE
  generator — on a large-diameter road network every such edge is a
  global shortcut): the improvement cascade exceeds Dijkstra's work,
  but the update is superstep-parallel while the priority-queue
  Dijkstra is not, so the update still wins on *virtual time* once
  threads are applied.  This parallel-vs-sequential asymmetry is
  precisely why the paper builds on update algorithms.

Work columns are engine-independent work units.  Time columns are
virtual: the update's recorded trace replayed at 16 threads on the
simulated work-span machine, and Dijkstra's work charged sequentially
at the same cost per unit.  The table reads no wall clock;
``test_sosp_update_kernel_benchmark`` times the kernel separately.
"""

import pytest

from conftest import write_result
from repro.bench import render_table
from repro.bench.datasets import load_dataset
from repro.core import SOSPTree, sosp_update
from repro.dynamic import local_insert_batch, random_insert_batch
from repro.parallel import SimulatedEngine, WorkMeter, replay_trace
from repro.parallel.cost import DEFAULT_SECONDS_PER_UNIT
from repro.sssp import dijkstra

DATASET = "roadNet-PA"
BATCH_FRACTIONS = (0.001, 0.01, 0.05)
UPDATE_MS = "update virtual ms @16T"
DIJKSTRA_MS = "dijkstra virtual ms"


def run_comparison():
    rows = []
    for regime in ("redundant", "local", "teleport"):
        for frac in BATCH_FRACTIONS:
            g = load_dataset(DATASET, k=1, fresh=True)
            tree = SOSPTree.build(g, 0)
            size = max(1, int(frac * g.num_edges))
            if regime == "redundant":
                # local endpoints, weights above any 3-hop subpath cost
                # (edge weights are <= 10): guaranteed no improvement
                batch = local_insert_batch(g, size, hops=3, seed=42,
                                           low=31.0, high=40.0)
            elif regime == "local":
                batch = local_insert_batch(g, size, hops=3, seed=42)
            else:
                batch = random_insert_batch(g, size, seed=42)
            batch.apply_to(g)

            eng = SimulatedEngine(threads=1, record_trace=True)
            sosp_update(g, tree, batch, engine=eng)
            update_units = eng.work_units
            update_ms_16t = 1e3 * replay_trace(eng.trace, 16)

            meter = WorkMeter()
            dijkstra(g, 0, meter=meter)
            recompute_units = meter.total
            # Dijkstra is sequential: its virtual time is its work
            recompute_ms = 1e3 * recompute_units * DEFAULT_SECONDS_PER_UNIT

            rows.append(
                {
                    "regime": regime,
                    "dE/|E|": f"{frac:.1%}",
                    "batch": batch.num_insertions,
                    "update work": int(update_units),
                    "dijkstra work": int(recompute_units),
                    "work ratio": f"{update_units / recompute_units:.3f}",
                    UPDATE_MS: f"{update_ms_16t:.2f}",
                    DIJKSTRA_MS: f"{recompute_ms:.2f}",
                }
            )
    return rows


def test_update_vs_recompute_report(benchmark, results_dir):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    text = render_table(
        rows,
        ["regime", "dE/|E|", "batch", "update work", "dijkstra work",
         "work ratio", UPDATE_MS, DIJKSTRA_MS],
    )
    write_result(results_dir, "update_vs_recompute.txt", text)

    redundant = [r for r in rows if r["regime"] == "redundant"]
    # redundant updates: negligible next to recomputing, at every size
    for r in redundant:
        assert float(r["work ratio"]) < 0.1, r
    # teleport updates (the paper's ΔE distribution): parallel update
    # time beats sequential Dijkstra at every batch size.  (Large
    # *local* batches propagate deep and thin — barrier-bound — and can
    # lose even in parallel; the table shows that crossover honestly.)
    for r in rows:
        if r["regime"] == "teleport":
            assert float(r[UPDATE_MS]) < float(r[DIJKSTRA_MS]), r


def test_sosp_update_kernel_benchmark(benchmark):
    """Wall-clock pytest-benchmark of the Algorithm-1 kernel itself."""
    g0 = load_dataset(DATASET, k=1, fresh=True)
    tree0 = SOSPTree.build(g0, 0)

    def setup():
        g = g0.copy()
        tree = tree0.copy()
        batch = random_insert_batch(g, 300, seed=7)
        batch.apply_to(g)
        return (g, tree, batch), {}

    def kernel(g, tree, batch):
        return sosp_update(g, tree, batch)

    benchmark.pedantic(kernel, setup=setup, rounds=3, iterations=1)
