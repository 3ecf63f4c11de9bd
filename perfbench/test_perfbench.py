"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

They use small graphs except :func:`test_cli_shm_run_is_spawn_safe`,
which drives the real command once on the shared-memory workload.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullRecorder, SpanRecorder, instrument  # noqa: E402


def small(name: str, **over) -> workloads.Config:
    base = dict(n=2_000, batch_size=100, checkpoint_every=2)
    base.update(over)
    return dataclasses.replace(workloads.CONFIGS[name], **base)


def traced_counts(cfg: workloads.Config, seed: int) -> dict:
    rec = SpanRecorder()
    wl = workloads.build(cfg.name, seed, rec, 1.0, cfg=cfg)
    try:
        with instrument(rec):
            res = wl.run()
    finally:
        wl.close()
    assert res.correct, res.problems
    return run.core_counts(res.stats)


def test_mosp_counts_repeat_exactly_at_one_seed():
    cfg = small("mosp-insert")
    first = traced_counts(cfg, seed=5)
    assert first["core.relaxations"] > 0
    assert traced_counts(cfg, seed=5) == first


def test_oracle_catches_one_corrupted_distance():
    cfg = small("mosp-insert", batches_per_s=1.0)
    wl = workloads.build(cfg.name, 3, NullRecorder(), 1.0, cfg=cfg)
    try:
        res = wl.run()
        assert res.correct, res.problems
        reachable = np.flatnonzero(np.isfinite(wl.trees[1].dist))
        v = int(reachable[-1])
        wl.trees[1].dist[v] = np.nextafter(wl.trees[1].dist[v], np.inf)
        out = workloads.PassResult()
        wl.checkpoint(wl.last_out, out)
    finally:
        wl.close()
    assert not out.correct and out.failed == 1


def test_mosp_path_check_catches_a_wrong_cost_row():
    cfg = small("mosp-insert", batches_per_s=1.0)
    wl = workloads.build(cfg.name, 4, NullRecorder(), 1.0, cfg=cfg)
    try:
        assert wl.run().correct
        result = wl.last_out
        ref = wl.trees[0].dist
        assert oracle.mosp_paths_consistent(result, wl.graph, ref)
        v = int(np.flatnonzero(np.isfinite(ref))[-1])
        result.dist_vectors[v, 2] += 1e-9
        assert not oracle.mosp_paths_consistent(result, wl.graph, ref)
    finally:
        wl.close()


def test_service_pass_is_checked_and_counts_reads():
    cfg = small("service-rw", rate=50.0, burst_rate=200.0, open_share=0.5)
    wl = workloads.build(cfg.name, 2, NullRecorder(), 4.0, cfg=cfg)
    try:
        res = wl.run()
    finally:
        wl.close()
    assert res.correct, res.problems
    assert res.edits == 400 and res.epochs >= 2
    assert res.freshness_ms and res.query_us and res.verify_us


@pytest.mark.xfail(strict=True, reason=(
    "apply_mixed_batch Step D skips raises np.isclose to the old distance; "
    "workloads.mixed_batch drops such re-weights until it is fixed"))
def test_tiny_raise_of_a_tree_edge_is_repaired():
    from repro.core import SOSPTree, apply_mixed_batch
    from repro.dynamic.changes import ChangeBatch
    from repro.graph import DiGraph

    g = DiGraph.from_edge_list(3, [(0, 1, 40.0), (1, 2, 1.0)])
    tree = SOSPTree.build(g, 0)
    batch = ChangeBatch.weight_changes([(0, 1, np.array([40.0003]))])
    batch.apply_to(g)
    apply_mixed_batch(g, tree, batch)
    assert oracle.check_tree(tree.dist, g, 0, 0, NullRecorder())[0]


def test_benchmark_json_lists_the_printed_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in doc[key]} == table
    assert {w["name"] for w in doc["workloads"]} == set(workloads.CONFIGS)


def test_tail_is_the_90th_percentile():
    assert run.tail(list(range(101))) == (90.0, 90, 101)
    assert run.tail([3.0]) == (3.0, 90, 1)


def test_host_slowdown_is_near_one_and_positive():
    # about 1 on the reference host in its fast state, 1.6 in its slow one
    assert 0.1 < workloads.host_slowdown() < 10.0


def _shm_segments() -> set:
    shm = Path("/dev/shm")
    return {p.name for p in shm.glob("repro_*")} if shm.is_dir() else set()


def test_cli_shm_run_is_spawn_safe(tmp_path):
    """The real command on the shm workload: spawn workers re-import the
    entry script, so it must be guarded; every segment is unlinked."""
    before = _shm_segments()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sosp-mixed-shm",
         "--seed", "3", "--seconds", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert _shm_segments() <= before


def test_stop_children_ends_the_resource_tracker():
    """The first shared-memory segment starts ``multiprocessing``'s
    resource tracker, which would otherwise outlive the run."""
    from multiprocessing import resource_tracker, shared_memory

    seg = shared_memory.SharedMemory(create=True, size=16)
    seg.close()
    seg.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None and Path(f"/proc/{pid}").exists()
    assert run.stop_children() == []
    assert not Path(f"/proc/{pid}").exists()


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mosp-insert",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":  # pragma: no cover - convenience
    sys.exit(pytest.main([__file__, "-q"]))
