"""Acceptance bench: one mixed-batch pass vs sequential replay.

The unified fully dynamic pipeline (``apply_mixed_batch``) handles a
batch of deletions, weight changes, and insertions with ONE
invalidate/seed/propagate sweep.  The pre-existing alternative replays
the same edits as two passes — a deletion pass (weight changes lowered
to delete + re-insert) followed by an insertion-only ``sosp_update`` —
paying for two frontier propagations over overlapping affected regions.

Both variants produce the identical final graph, so the distance
fixpoints must match bitwise (differential gate) before any timing is
trusted.  Writes ``results/mixed_vs_sequential.txt`` with rows for the
serial engine and a 4-worker shared-memory engine (the paper's
Figure-4-class road topology), and enforces the acceptance criterion:
the single pass is no slower than the sequential replay.  Each variant
runs ``ROUNDS`` times per engine, the two alternating, and the gate
reads the medians.
"""

from __future__ import annotations

import copy
import time

import numpy as np
import pytest
from conftest import median_iqr, write_result

from repro.core import SOSPTree, apply_mixed_batch, sosp_update
from repro.dynamic import ChangeBatch
from repro.graph import road_like
from repro.graph.csr import CSRGraph
from repro.parallel import SerialEngine, SharedMemoryEngine
from repro.bench.report import render_table

pytestmark = pytest.mark.slow

GRAPH_N = 22_500  # 150x150 grid_road, the Fig.-4 stand-in family
BATCH = 300
FRACTIONS = (0.4, 0.3, 0.3)  # insert / delete / weight-change
ROUNDS = 5
THREADS = 4


def _make_batches(g, seed):
    """A mixed batch plus its two-pass replay equivalent.

    Deletion and weight-change targets are *disjoint* live edges so the
    replay (delete the re-weighted edge, re-insert it at the new
    weight) reaches the same final graph as the in-place overwrite.
    """
    rng = np.random.default_rng(seed)
    n_ins = int(BATCH * FRACTIONS[0])
    n_del = int(BATCH * FRACTIONS[1])
    n_wc = BATCH - n_ins - n_del
    su, sv, _ = g.edge_arrays()
    idx = rng.choice(len(su), size=n_del + n_wc, replace=False)
    del_pairs = [(int(su[i]), int(sv[i])) for i in idx[:n_del]]
    wc_pairs = [(int(su[i]), int(sv[i])) for i in idx[n_del:]]
    wc_w = rng.uniform(1.0, 10.0, size=n_wc)
    ins_u = rng.integers(0, g.num_vertices, size=n_ins)
    ins_v = rng.integers(0, g.num_vertices, size=n_ins)
    ins_w = rng.uniform(1.0, 10.0, size=n_ins)
    ins = [(int(u), int(v), float(w)) for u, v, w in zip(ins_u, ins_v, ins_w)]
    wc = [(u, v, float(w)) for (u, v), w in zip(wc_pairs, wc_w)]

    mixed = ChangeBatch.concat(
        ChangeBatch.deletions(del_pairs),
        ChangeBatch.weight_changes(wc),
        ChangeBatch.insertions(ins),
    )
    replay_del = ChangeBatch.deletions(del_pairs + wc_pairs)
    replay_ins = ChangeBatch.insertions(wc + ins)
    return mixed, replay_del, replay_ins


def _run_mixed(graph, batch, engine):
    g = copy.deepcopy(graph)
    tree = SOSPTree.build(g, 0)
    snapshot = CSRGraph.from_digraph(g)
    batch.apply_to(g)
    snapshot.apply_batch(batch)
    t0 = time.perf_counter()
    apply_mixed_batch(snapshot, tree, batch, engine=engine)
    return time.perf_counter() - t0, tree


def _run_replay(graph, del_batch, ins_batch, engine):
    g = copy.deepcopy(graph)
    tree = SOSPTree.build(g, 0)
    snapshot = CSRGraph.from_digraph(g)
    del_batch.apply_to(g)
    snapshot.apply_batch(del_batch)
    t0 = time.perf_counter()
    apply_mixed_batch(snapshot, tree, del_batch, engine=engine)
    elapsed = time.perf_counter() - t0
    ins_batch.apply_to(g)
    snapshot.append_batch(ins_batch)
    t0 = time.perf_counter()
    sosp_update(snapshot, tree, ins_batch, engine=engine)
    return elapsed + (time.perf_counter() - t0), tree


def _compare(graph, seed, engine):
    """ROUNDS alternating wall times per variant + the bitwise gate."""
    mixed, replay_del, replay_ins = _make_batches(graph, seed)
    t_mixed, t_replay = [], []
    for _ in range(ROUNDS):
        tm, tree_m = _run_mixed(graph, mixed, engine)
        tr, tree_r = _run_replay(graph, replay_del, replay_ins, engine)
        np.testing.assert_array_equal(tree_m.dist, tree_r.dist)
        t_mixed.append(tm)
        t_replay.append(tr)
    return t_mixed, t_replay


def _cell(xs):
    med, iqr = median_iqr(xs)
    return f"{med * 1e3:,.2f} [{iqr * 1e3:,.2f}]"


def test_mixed_vs_sequential(results_dir, bench_seed):
    graph = road_like(GRAPH_N, k=1, seed=bench_seed)
    rows = []
    win_at_4 = None
    for label, make in (
        ("serial", SerialEngine),
        (f"shm ({THREADS} workers)",
         lambda: SharedMemoryEngine(threads=THREADS)),
    ):
        engine = make()
        try:
            runs_mixed, runs_replay = _compare(graph, bench_seed, engine)
        finally:
            closer = getattr(engine, "close", None)
            if callable(closer):
                closer()
        t_mixed = median_iqr(runs_mixed)[0]
        t_replay = median_iqr(runs_replay)[0]
        speedup = t_replay / t_mixed if t_mixed else float("inf")
        rows.append({
            "engine": label,
            "mixed single pass (ms)": _cell(runs_mixed),
            "del+ins replay (ms)": _cell(runs_replay),
            "replay/mixed": f"{speedup:.2f}x",
        })
        if label != "serial":
            win_at_4 = speedup
        assert t_mixed <= t_replay, (
            f"single mixed pass slower than sequential replay on "
            f"{label}: median {t_mixed * 1e3:.2f}ms vs "
            f"{t_replay * 1e3:.2f}ms"
        )
    header = (
        f"mixed batch vs sequential replay: road_like n={GRAPH_N:,}, "
        f"batch={BATCH} ({FRACTIONS[0]:.0%} ins / {FRACTIONS[1]:.0%} del "
        f"/ {FRACTIONS[2]:.0%} re-weight), seed {bench_seed}\n"
        f"wall ms, median [IQR] of {ROUNDS} runs per variant, variants "
        f"alternating; replay/mixed = ratio of medians\n"
        "same final graph, bitwise-identical dist; replay pays a second "
        "invalidate + propagate sweep\n\n"
    )
    table = render_table(
        rows,
        ["engine", "mixed single pass (ms)", "del+ins replay (ms)",
         "replay/mixed"],
    )
    footer = (
        f"\nwin at {THREADS} workers: single pass "
        f"{win_at_4:.2f}x faster than replay\n"
    )
    write_result(results_dir, "mixed_vs_sequential.txt",
                 header + table + footer)
