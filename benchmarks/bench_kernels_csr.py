"""Old-vs-new kernel comparison — the vectorised CSR fast path.

The acceptance gate of the CSR kernel work: on a 2^16-vertex random
geometric graph (the paper's rgg-n family) with a dynamic insertion
batch, the vectorised Step-2 propagation
(:func:`repro.core.kernels.propagate_csr`) must be at least **2×**
faster than the pointer-chasing reference twin kept in
``tests/_sosp_reference.py``, while producing the exact same tree.
Each arm runs ``RUNS`` times, the arms alternating, and the gate reads
the medians.  The medians and interquartile ranges (and the Step-1
comparison, plus the one-off snapshot freeze cost the kernels amortise
via ``append_batch``) are written to ``results/kernels_csr.txt``.
"""

import copy
import time

import numpy as np
import pytest

from conftest import median_iqr, write_result
from repro.bench.report import render_table
from repro.core import SOSPTree, sosp_update
from repro.dynamic import random_insert_batch
from repro.graph.csr import CSRGraph
from repro.graph.generators import random_geometric
from tests._sosp_reference import sosp_update_reference

pytestmark = pytest.mark.slow

RGG_LOG_N = 16
BATCH_SIZE = 2048
REQUIRED_STEP2_SPEEDUP = 2.0
RUNS = 5


@pytest.fixture(scope="module")
def rgg_state(bench_seed):
    g = random_geometric(2 ** RGG_LOG_N, k=1, seed=bench_seed)
    tree = SOSPTree.build(g, 0)
    batch = random_insert_batch(g, BATCH_SIZE, seed=bench_seed + 1)
    batch.apply_to(g)
    return g, tree, batch


def _cell(xs):
    med, iqr = median_iqr(xs)
    return f"{med:.4f} [{iqr:.4f}]"


def test_csr_kernels_vs_reference_step2(rgg_state, results_dir):
    g, tree, batch = rgg_state

    ref = {"step1": [], "step2": []}
    csr = {"step1": [], "step2": [], "freeze": []}
    for _ in range(RUNS):
        tree_ref = copy.deepcopy(tree)
        stats_ref = sosp_update_reference(g, tree_ref, batch)

        tree_csr = copy.deepcopy(tree)
        t0 = time.perf_counter()
        snapshot = CSRGraph.from_digraph(g)
        csr["freeze"].append(time.perf_counter() - t0)
        stats_csr = sosp_update(snapshot, tree_csr, batch)

        # differential gate first: speed means nothing if the answer drifts
        np.testing.assert_array_equal(tree_csr.dist, tree_ref.dist)
        for step in ("step1", "step2"):
            ref[step].append(stats_ref.step_seconds[step])
            csr[step].append(stats_csr.step_seconds[step])
    tree_csr.certify(g)

    speedups = {
        step: median_iqr(ref[step])[0] / median_iqr(csr[step])[0]
        for step in ("step1", "step2")
    }
    rows = [
        {
            "step": step,
            "reference (s)": _cell(ref[step]),
            "csr kernels (s)": _cell(csr[step]),
            "speedup": f"{speedups[step]:.2f}x",
        }
        for step in ("step1", "step2")
    ]
    rows.append({
        "step": "snapshot freeze (one-off)",
        "reference (s)": "-",
        "csr kernels (s)": _cell(csr["freeze"]),
        "speedup": "-",
    })
    header = (
        f"rgg n=2^{RGG_LOG_N} ({g.num_vertices} vertices, "
        f"{g.num_edges} edges), insertion batch |B|={BATCH_SIZE}\n"
        f"wall seconds, median [IQR] of {RUNS} runs per arm, arms "
        f"alternating; speedup = ratio of medians"
    )
    text = header + "\n" + render_table(
        rows, ["step", "reference (s)", "csr kernels (s)", "speedup"]
    )
    write_result(results_dir, "kernels_csr.txt", text)

    assert speedups["step2"] >= REQUIRED_STEP2_SPEEDUP, (
        f"Step-2 CSR kernel median speedup {speedups['step2']:.2f}x "
        f"below the {REQUIRED_STEP2_SPEEDUP}x acceptance bar"
    )


def test_incremental_snapshot_amortises_freeze(rgg_state, bench_seed,
                                               results_dir):
    """Appending a batch to a live snapshot must cost far less than the
    O(|E|) re-freeze it replaces."""
    g, _tree, _batch = rgg_state
    snapshot = CSRGraph.from_digraph(g)
    batch = random_insert_batch(g, BATCH_SIZE, seed=bench_seed + 2)

    t0 = time.perf_counter()
    snapshot.append_batch(batch)
    append_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    CSRGraph.from_digraph(g)
    freeze_s = time.perf_counter() - t0

    assert snapshot.num_edges == g.num_edges + batch.num_insertions
    assert append_s * 10 < freeze_s, (
        f"append ({append_s:.4f}s) should be >=10x cheaper than a "
        f"re-freeze ({freeze_s:.4f}s)"
    )
