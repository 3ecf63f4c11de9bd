"""Ablation — the paper's Step-0 grouping technique.

"Existing solutions [17] use multiple iterations to achieve correctness
in such scenarios.  Unlike this approach, we use a simple grouping
technique to avoid multiple iterations." (§3.1)

This ablation runs Algorithm 1 with grouping on and off (the off mode
emulates the prior-work iterate-to-fixpoint batch apply) and reports
the Step-1 profile: passes over the batch, batch-scan work
(|Ins| × passes), and end-to-end virtual time.  Both arms run the
one-task-per-group Python twin kept in ``tests/_sosp_reference.py``
(the library's CSR kernel always groups), so the table isolates the
grouping itself.

Expected shape: identical final trees; grouped Step 1 takes exactly
one pass while the ungrouped emulation takes several, multiplying the
batch-scan work by the pass count.  (Total relaxations across the
whole update can go either way — extra Step-1 passes pre-propagate
chained improvements that Step 2 would otherwise handle — which is
itself a finding worth the table.)
"""

import numpy as np
import pytest

from conftest import write_result
from repro.bench import render_table
from repro.bench.datasets import load_dataset
from repro.core import SOSPTree
from repro.dynamic import ChangeBatch, random_insert_batch
from repro.parallel import SimulatedEngine, replay_trace
from tests._sosp_reference import sosp_update_reference

DATASET = "roadNet-PA"


def chained_batch(g, size, seed):
    """A batch whose insertions chain (worst case for the ungrouped
    fixpoint): half random, half forming low-weight paths through
    random hubs, so each pass unlocks the next link."""
    rng = np.random.default_rng(seed)
    base = random_insert_batch(g, size // 2, seed=seed)
    hubs = rng.integers(0, g.num_vertices, size=size // 2 + 1)
    chain = ChangeBatch.insertions(
        [
            (int(hubs[i]), int(hubs[i + 1]),
             tuple([0.5] * g.num_objectives))
            for i in range(size // 2)
            if hubs[i] != hubs[i + 1]
        ]
    )
    return ChangeBatch.concat(base, chain)


def run_ablation():
    rows = []
    for mode, use_grouping in (("grouped", True), ("ungrouped", False)):
        g = load_dataset(DATASET, k=1, fresh=True)
        tree = SOSPTree.build(g, 0)
        batch = chained_batch(g, 800, seed=5)
        batch.apply_to(g)
        eng1 = SimulatedEngine(threads=1, record_trace=True)
        stats = sosp_update_reference(g, tree, batch, engine=eng1,
                                      use_grouping=use_grouping)
        rows.append(
            {
                "mode": mode,
                "step1 passes": stats.step1_passes,
                "step1 scan work": batch.num_insertions * stats.step1_passes,
                "step2 iterations": stats.iterations,
                "total relaxations": stats.relaxations,
                "ms @1T": f"{1e3 * replay_trace(eng1.trace, 1):.2f}",
                "ms @16T": f"{1e3 * replay_trace(eng1.trace, 16):.2f}",
                "dist checksum": f"{np.nansum(np.where(np.isfinite(tree.dist), tree.dist, 0)):.3f}",
            }
        )
    return rows


def test_grouping_ablation_report(benchmark, results_dir):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    text = render_table(
        rows,
        ["mode", "step1 passes", "step1 scan work", "step2 iterations",
         "total relaxations", "ms @1T", "ms @16T", "dist checksum"],
    )
    write_result(results_dir, "ablation_grouping.txt", text)

    grouped, ungrouped = rows
    # identical final trees
    assert grouped["dist checksum"] == ungrouped["dist checksum"]
    # the paper's claim: grouping removes the multi-pass batch apply
    assert grouped["step1 passes"] == 1
    assert ungrouped["step1 passes"] >= 2
    assert ungrouped["step1 scan work"] >= 2 * grouped["step1 scan work"]
