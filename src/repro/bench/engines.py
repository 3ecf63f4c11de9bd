"""Old-vs-new process backend comparison: pickled slabs vs shared memory.

The question this answers is the tentpole's acceptance gate: on the
same slab workload, how much wall-clock does
:class:`~repro.parallel.backends.shm.SharedMemoryEngine` (persistent
workers attached once to planted arrays, ``(lo, hi)``-only dispatch)
save over the best a plain :class:`ProcessEngine` can do — shipping
each superstep's array slices through the pickle round-trip and
copying the results back?

Both paths execute the *identical* per-slab numpy relaxation and must
produce bitwise-identical arrays (asserted here), so every measured
second of difference is transport: per-superstep pickling that the
shared-memory design removes.  On a single-core host the computation
itself cannot speed up at all — the entire margin is serialisation,
which is exactly the overhead term of the paper's Fig. 5 discussion.
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from repro.parallel.api import SlabTask
from repro.parallel.backends.processes import ProcessEngine
from repro.parallel.backends.shm import SharedMemoryEngine

__all__ = ["compare_partitioned_vs_shm", "compare_process_backends"]


def _slab_relax(dist: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The shared per-slab body: one damped relaxation sweep."""
    return np.minimum(dist, (dist + w) * 0.999)


def _span_via_pickle(
    item: Tuple[np.ndarray, np.ndarray, int, int],
) -> Tuple[int, int, np.ndarray]:
    """Old-path task: arrays arrive *inside the item* (pickled every
    superstep) and the updated slice is pickled back for the master to
    copy in — the only way a plain process pool can run this kernel."""
    d, wv, lo, hi = item
    return lo, hi, _slab_relax(d, wv)


def _span_via_shm(
    arrays: Mapping[str, np.ndarray],
    params: Mapping[str, Any],
    lo: int,
    hi: int,
) -> int:
    """New-path slab kernel: reads and writes the planted views."""
    d = arrays["bench.dist"]
    wv = arrays["bench.w"]
    d[lo:hi] = _slab_relax(d[lo:hi], wv[lo:hi])
    return hi - lo


def _spans(n: int, parts: int) -> List[Tuple[int, int]]:
    bounds = [round(i * n / parts) for i in range(parts + 1)]
    return [
        (bounds[i], bounds[i + 1])
        for i in range(parts)
        if bounds[i] < bounds[i + 1]
    ]


def compare_process_backends(
    n: int = 1 << 21,
    supersteps: int = 6,
    threads: int = 4,
    seed: int = 0,
) -> Dict[str, float]:
    """Run the same slab workload on both process backends; time them.

    Returns a dict with per-backend wall seconds, per-superstep payload
    bytes, and the old/new speedup.  Pool spawn and the one-off plant
    ("attach once") are excluded from the timed region by a warm-up
    superstep on each engine — the comparison is steady-state
    superstep cost, matching how the kernels use the engines.
    """
    rng = np.random.default_rng(seed)
    dist0 = rng.random(n)
    w = rng.random(n)
    spans = _spans(n, 4 * threads)

    # ---------------- old: ProcessEngine, arrays travel every superstep
    old = ProcessEngine(threads=threads, min_items_per_process=1)
    dist_old = dist0.copy()

    def one_old_superstep() -> None:
        items = [(dist_old[lo:hi], w[lo:hi], lo, hi) for lo, hi in spans]
        for lo, hi, out in old.parallel_for(items, _span_via_pickle):
            dist_old[lo:hi] = out

    one_old_superstep()  # warm-up: spawns the pool
    dist_old[:] = dist0
    old_payload = sum(
        len(pickle.dumps((dist_old[lo:hi], w[lo:hi], lo, hi),
                         protocol=pickle.HIGHEST_PROTOCOL))
        for lo, hi in spans
    )
    t0 = time.perf_counter()
    for _ in range(supersteps):
        one_old_superstep()
    old_s = time.perf_counter() - t0
    old.close()

    # ---------------- new: SharedMemoryEngine, indices travel only
    new = SharedMemoryEngine(threads=threads, min_dispatch_items=1)
    dist_view = new.plant("bench.dist", dist0)
    new.plant("bench.w", w, fingerprint=("bench.w", seed, n))
    task = SlabTask(ref="repro.bench.engines:_span_via_shm",
                    arrays=("bench.dist", "bench.w"),
                    writes=("bench.dist",))
    new.parallel_for_slabs(n, task)  # warm-up: spawns + attaches
    np.copyto(dist_view, dist0)
    t1 = time.perf_counter()
    for _ in range(supersteps):
        new.parallel_for_slabs(n, task)
    new_s = time.perf_counter() - t1
    new_payload = int(new.last_dispatch_bytes)
    dist_new = dist_view.copy()
    new.close()

    np.testing.assert_array_equal(dist_new, dist_old)
    return {
        "n": float(n),
        "supersteps": float(supersteps),
        "threads": float(threads),
        "old_s": old_s,
        "new_s": new_s,
        "old_ms_per_superstep": 1e3 * old_s / supersteps,
        "new_ms_per_superstep": 1e3 * new_s / supersteps,
        "old_payload_bytes": float(old_payload),
        "new_payload_bytes": float(new_payload),
        "speedup": old_s / new_s if new_s > 0 else float("inf"),
    }


def _timed_update_run(
    engine: Any,
    n: int,
    batches: int,
    batch_size: int,
    seed: int,
) -> Tuple[np.ndarray, float]:
    """Drive ``batches`` timed insert batches through ``sosp_update``.

    One extra warm-up batch (excluded from the timing) absorbs pool
    spawn, shared-memory planting, and — for the partitioned engine —
    the one-off shard-plan build, so the measured region is steady-state
    per-batch update cost on an incrementally maintained CSR snapshot.
    """
    from repro.core import SOSPTree, sosp_update
    from repro.dynamic import random_insert_batch
    from repro.graph import road_like
    from repro.graph.csr import CSRGraph

    g = road_like(n, k=1, seed=seed)
    tree = SOSPTree.build(g, 0)
    snapshot = CSRGraph.from_digraph(g)
    total = 0.0
    for step in range(batches + 1):  # step 0 is the warm-up
        batch = random_insert_batch(g, batch_size, seed=seed + 100 + step)
        batch.apply_to(g)
        snapshot.append_batch(batch)
        t0 = time.perf_counter()
        sosp_update(g, tree, batch, engine=engine, csr=snapshot)
        if step > 0:
            total += time.perf_counter() - t0
    return tree.dist.copy(), total


def _best_of(
    engine: Any,
    n: int,
    batches: int,
    batch_size: int,
    seed: int,
    repeats: int,
) -> Tuple[np.ndarray, float]:
    """Best-of-``repeats`` total for one engine (minimum is the right
    statistic on a shared single-core host: every perturbation — cron,
    page cache, scheduler — only ever adds time)."""
    best = float("inf")
    dist = None
    for _ in range(repeats):
        d, total = _timed_update_run(engine, n, batches, batch_size, seed)
        if dist is None:
            dist = d
        else:
            np.testing.assert_array_equal(d, dist)
        best = min(best, total)
    assert dist is not None
    return dist, best


def compare_partitioned_vs_shm(
    n: int = 4000,
    batches: int = 6,
    batch_size: int = 64,
    workers: int = 2,
    seed: int = 0,
    repeats: int = 3,
) -> Dict[str, float]:
    """Partitioned multi-pool vs single-pool shm at equal worker budget.

    Both engines get ``workers`` spawn workers in total: the single
    shared-memory pool runs ``threads=workers``; the partitioned engine
    runs ``workers`` shards of one single-worker shm pool each, driven
    concurrently through the boundary-exchange supersteps.  The
    workload is the real update pipeline (``sosp_update`` over insert
    batches on an incremental CSR snapshot), and both fixpoints must be
    bitwise-identical to the serial reference before any timing is
    trusted.  Warm-up (pool spawn + plan build) is excluded — see
    :func:`_timed_update_run` — and each engine reports its best of
    ``repeats`` passes over the identical batch sequence (pools stay
    warm across passes; each pass replays from a fresh graph).
    """
    from repro.parallel import PartitionedEngine

    dist_serial, serial_s = _best_of(
        None, n, batches, batch_size, seed, repeats
    )

    shm = SharedMemoryEngine(threads=workers)
    try:
        dist_shm, shm_s = _best_of(
            shm, n, batches, batch_size, seed, repeats
        )
    finally:
        shm.close()

    part = PartitionedEngine(threads=1, partitions=workers, inner="shm")
    try:
        dist_part, part_s = _best_of(
            part, n, batches, batch_size, seed, repeats
        )
    finally:
        part.close()

    np.testing.assert_array_equal(dist_shm, dist_serial)
    np.testing.assert_array_equal(dist_part, dist_serial)
    return {
        "n": float(n),
        "batches": float(batches),
        "batch_size": float(batch_size),
        "workers": float(workers),
        "serial_s": serial_s,
        "shm_s": shm_s,
        "partitioned_s": part_s,
        "serial_ms_per_batch": 1e3 * serial_s / batches,
        "shm_ms_per_batch": 1e3 * shm_s / batches,
        "partitioned_ms_per_batch": 1e3 * part_s / batches,
        "speedup_vs_shm": shm_s / part_s if part_s > 0 else float("inf"),
    }
