"""The three workloads of the update-pipeline benchmark.

Each workload object *is* its set-up: the constructor generates the
graph from the seed, builds the trees, freezes the CSR, starts the
engine pool or the service, and pre-generates whatever input must not
be generated inside the timed window.  :meth:`run` then drives one pass
through the program's public API and returns a :class:`PassResult`;
:meth:`close` releases every engine and service in ``finally``.

The amount of work in a pass is fixed by ``seconds`` and the config's
nominal rates (batches per second, edits per second), never by how fast
the program runs.  The update streams are not stationary — random
insertions keep shortening paths, so early batches cost more than late
ones — and a time-bounded pass would let a slower machine or commit
measure fewer, costlier batches.  Fixed work keeps every run of a seed on
identical input; slower code simply takes longer.
"""

from __future__ import annotations

import math
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from repro.core import SOSPTree, apply_mixed_batch, mosp_update
from repro.dynamic.batch_gen import random_insert_batch, random_mixed_batch
from repro.dynamic.changes import KIND_WEIGHT, ChangeBatch
from repro.dynamic.feed import EdgeEdit, edits_of
from repro.errors import ReproError
from repro.graph import CSRGraph, road_like
from repro.parallel import resolve_engine
from repro.service import ServiceState, UpdateService

import oracle
from tracing import CountingEngine, SpanRecorder

SOURCE = 0
#: Re-weights closer than this to the live weight are dropped; see
#: :func:`mixed_batch`.
NOOP_REWEIGHT = 0.1
#: Reads (distance + path) after each closed-loop batch.
QUERIES_PER_BATCH = 100
#: Input of the host-speed probe (see :func:`host_slowdown`).
_PROBE = np.random.default_rng(0).random(3000).tolist()
#: :func:`_probe_s` on the reference host, a shared 2-vCPU VM, in the
#: faster of the two speeds it flips between.
PROBE_REF_S = 0.7e-3
#: Seconds between two host-speed probes of the service's producer.
PROBE_PERIOD_S = 0.25


@dataclass(frozen=True)
class Config:
    """Input parameters of one workload (printed with every run)."""

    name: str
    loop: str
    n: int
    k: int
    batch_size: int
    insert: float
    reweight: float
    engine: str
    workers: int
    batches_per_s: float = 0.0
    checkpoint_every: int = 0
    rate: float = 0.0
    burst_rate: float = 0.0
    open_share: float = 0.0
    read_period_s: float = 0.0
    flush_size: int = 0
    flush_latency_s: float = 0.0
    max_pending: int = 0


CONFIGS: Dict[str, Config] = {
    # 20k vertices and 200-edge batches (ΔE = 1% of |V|): 75 batches at
    # --seconds 25, enough for a tail percentile well above the median
    "mosp-insert": Config(
        name="mosp-insert", loop="closed, 1 caller", n=20_000, k=3,
        batch_size=200, insert=1.0, reweight=0.0, engine="serial",
        workers=1, batches_per_s=3.0, checkpoint_every=15,
    ),
    # 50k vertices: frontiers large enough that shm dispatches about a
    # third of its slab supersteps to the workers
    "sosp-mixed-shm": Config(
        name="sosp-mixed-shm", loop="closed, 1 caller", n=50_000, k=1,
        batch_size=500, insert=0.5, reweight=0.25, engine="shm",
        workers=2, batches_per_s=2.5, checkpoint_every=25,
    ),
    # open loop at ~1/5 of the saturated rate: nearer saturation, backlog
    # behind rare large subtree invalidations swung the freshness tail
    # by ±40% between seeds; a mid-grid source keeps one deleted tree
    # edge from cutting off most of the graph
    "service-rw": Config(
        name="service-rw", loop="open at `rate`, then closed burst",
        n=20_000, k=1, batch_size=500, insert=0.7, reweight=0.15,
        engine="serial", workers=1, rate=300.0, burst_rate=1500.0,
        open_share=0.6, read_period_s=0.005, flush_size=128,
        flush_latency_s=0.05, max_pending=256,
    ),
}


@dataclass
class PassResult:
    """Raw samples and counters of one pass."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: List[str] = field(default_factory=list)
    edits: int = 0
    busy_s: float = 0.0
    batch_ms: List[float] = field(default_factory=list)
    freshness_ms: List[float] = field(default_factory=list)
    query_us: List[float] = field(default_factory=list)
    tree_update_ms: List[float] = field(default_factory=list)
    steps_ms: Dict[str, List[float]] = field(default_factory=dict)
    stats: List[Any] = field(default_factory=list)
    recompute_ms: List[float] = field(default_factory=list)
    oracle_s: float = 0.0
    sched_lag_ms: List[float] = field(default_factory=list)
    submit_wait_ms: List[float] = field(default_factory=list)
    verify_us: List[float] = field(default_factory=list)
    path_to_us: List[float] = field(default_factory=list)
    epochs: int = 0
    edits_per_epoch: float = 0.0
    queue_depth_max: int = 0
    csr_tail_edges: int = 0
    slowdown: List[float] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        self.correct = False
        self.problems.append(why)


def center(graph: Any) -> int:
    """The vertex in the middle of a ``road_like`` grid (same rows/cols
    rule as the generator)."""
    n = graph.num_vertices
    rows = max(1, math.isqrt(n))
    cols = -(-n // rows)
    return min(n - 1, (rows // 2) * cols + cols // 2)


def mixed_batch(graph: Any, cfg: Config, rng: Any) -> ChangeBatch:
    """The program's random mixed batch, minus near-no-op re-weights.

    ``apply_mixed_batch``'s Step D treats a raise of a tree edge that is
    ``np.isclose`` to the old distance (relative 1e-5, so up to ~0.02 on
    these graphs) as no raise: the subtree keeps distances that are now
    too small, and the oracle fails.  About 2% of uniformly drawn
    re-weights land within ``NOOP_REWEIGHT`` of the live weight; they
    are dropped so that a run's outcome does not hinge on that defect.
    """
    batch = random_mixed_batch(
        graph, cfg.batch_size, insert_fraction=cfg.insert,
        weight_change_fraction=cfg.reweight, seed=rng,
    )
    keep = np.ones(batch.num_changes, dtype=bool)
    for i in np.flatnonzero(batch.kind == KIND_WEIGHT):
        live = graph.min_weight_between(int(batch.src[i]), int(batch.dst[i]))
        keep[i] = abs(float(batch.weights[i, 0]) - live) >= NOOP_REWEIGHT
    return ChangeBatch(batch.src[keep], batch.dst[keep],
                       batch.weights[keep], batch.kind[keep])


def _probe_s() -> float:
    """Wall time of a fixed slice of interpreter loop and list sort.

    Pure Python: it never lets go of the GIL, so a thread that probes
    beside the service's writer measures the CPU, not the writer.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(8000):
        acc += i
    sorted(_PROBE)
    return perf_counter() - t0


def host_slowdown() -> float:
    """How much slower than the reference speed the host runs just now.

    On a shared VM the CPU's speed flipped between two levels about
    1.6x apart, each lasting from tens of milliseconds to many minutes,
    and it moved the update and the reads alike.  Closed loops probe
    before and after each batch (outside the timed window, while the
    engine's workers are idle) and divide its times by the result; the
    service's producer probes every ``PROBE_PERIOD_S`` and the service's
    times, but for freshness (mostly the flush-latency timer), are
    divided by the median.  A run in a slow minute and a run in a
    fast one then read the same.  The median of three probes takes
    2-3 ms.
    """
    return statistics.median(_probe_s() for _ in range(3)) / PROBE_REF_S


def make_engine(cfg: Config, recorder: Any) -> Any:
    engine = resolve_engine(cfg.engine, threads=cfg.workers)
    if cfg.workers > 1:
        # start the worker pool now (set-up, not the first timed batch):
        # a picklable builtin over one item per worker spawns them all
        engine.parallel_for(list(range(cfg.workers)), abs)
    if isinstance(recorder, SpanRecorder):
        return CountingEngine(engine, recorder)
    return engine


def close_engine(engine: Any) -> Optional[str]:
    """Close ``engine``; report shared-memory segments left planted."""
    closer = getattr(engine, "close", None)
    if callable(closer):
        closer()
    stats = getattr(engine, "plant_stats", None)
    if callable(stats) and stats():
        return f"{len(stats())} shared-memory segments outlived close()"
    return None


# ----------------------------------------------------------------------
class _ClosedLoop:
    """Batches back to back from one caller; subclasses supply the
    batch generator, the timed update, the reads and the oracle."""

    def __init__(self, cfg: Config, seed: int, recorder: Any,
                 seconds: float) -> None:
        self.cfg = cfg
        self.rec = recorder
        self.batches = max(1, round(seconds * cfg.batches_per_s))
        self.graph = road_like(cfg.n, k=cfg.k, seed=seed)
        self.trees = [
            SOSPTree.build(self.graph, SOURCE, objective=i)
            for i in range(cfg.k)
        ]
        self.csr = CSRGraph.from_digraph(self.graph)
        self.engine = make_engine(cfg, recorder)
        self.rng = np.random.default_rng([seed, 1])
        self.query_rng = np.random.default_rng([seed, 2])

    def close(self) -> Optional[str]:
        return close_engine(self.engine)

    def run(self) -> PassResult:
        res = PassResult()
        out: Any = None
        checked = 0
        for done in range(self.batches):
            with self.rec.span("bench.iteration", index=done):
                batch = self.make_batch()
                res.attempted += 1
                before = host_slowdown()
                t0 = perf_counter()
                try:
                    out = self.update(batch)
                except Exception as exc:  # a raising batch is a failed op
                    res.fail(f"batch {done} raised {exc!r}")
                    break
                wall = perf_counter() - t0
                after = host_slowdown()
                slow = (before + after) / 2.0
                res.slowdown.append(slow)
                wall /= slow
                res.edits += batch.num_changes
                res.busy_s += wall
                res.batch_ms.append(wall * 1e3)
                # closed loop: a batch's edits are due when it is handed
                # over and visible when the call returns
                res.freshness_ms.append(wall * 1e3)
                self.record(out, res)
                with self.rec.span("core.query"):
                    for _ in range(QUERIES_PER_BATCH):
                        v = int(self.query_rng.integers(self.cfg.n))
                        q0 = perf_counter()
                        self.read(out, v)
                        res.query_us.append(
                            (perf_counter() - q0) * 1e6 / after
                        )
            if (done + 1) % self.cfg.checkpoint_every == 0:
                self.checkpoint(out, res)
                checked = done + 1
                if not res.correct:
                    break
        if res.correct and out is not None and checked != res.attempted:
            self.checkpoint(out, res)
        res.csr_tail_edges = self.csr.num_tail_edges
        self.last_out = out
        return res

    def checkpoint(self, out: Any, res: PassResult) -> None:
        t0 = perf_counter()
        with self.rec.span("bench.oracle"):
            ok, seconds, refs = oracle.check_trees(
                self.trees, self.graph, self.rec
            )
            ok = ok and self.extra_check(out, refs)
        res.oracle_s += perf_counter() - t0
        res.recompute_ms.extend(s * 1e3 for s in seconds)
        if not ok:
            res.fail(f"oracle mismatch after batch {res.attempted}")

    def extra_check(self, out: Any, refs: List[np.ndarray]) -> bool:
        return True

    def make_batch(self) -> Any:
        raise NotImplementedError

    def update(self, batch: Any) -> Any:
        raise NotImplementedError

    def record(self, out: Any, res: PassResult) -> None:
        raise NotImplementedError

    def read(self, out: Any, v: int) -> None:
        raise NotImplementedError


class MospInsert(_ClosedLoop):
    """Algorithm 2 over a stream of random-endpoint insertion batches."""

    def make_batch(self) -> Any:
        return random_insert_batch(
            self.graph, self.cfg.batch_size, seed=self.rng
        )

    def update(self, batch: Any) -> Any:
        batch.apply_to(self.graph)
        self.csr.append_batch(batch)
        with self.rec.span("core.mosp_update"):
            return mosp_update(
                self.graph, self.trees, batch, engine=self.engine,
                use_csr_kernels=True, csr=self.csr,
            )

    def record(self, out: Any, res: PassResult) -> None:
        res.stats.extend(out.update_stats)
        secs = out.step_seconds
        res.tree_update_ms.extend(
            secs[f"sosp_update_{i}"] * 1e3 for i in range(self.cfg.k)
        )
        for key, name in (("ensemble", "ensemble"),
                          ("bellman_ford", "step3"),
                          ("reassign", "reassign")):
            res.steps_ms.setdefault(name, []).append(secs[key] * 1e3)

    def read(self, out: Any, v: int) -> None:
        if np.isfinite(out.cost_to(v)).all():
            out.path_to(v)

    def extra_check(self, out: Any, refs: List[np.ndarray]) -> bool:
        return oracle.mosp_paths_consistent(out, self.graph, refs[0])


class SospMixedShm(_ClosedLoop):
    """The fully dynamic update on the shared-memory engine.

    Each batch is generated against the live graph between timed
    calls — the single caller owns it then, so that is the same as
    generating against a replica — and half its records delete or
    re-weight live edges, so the graph keeps a steady size.
    """

    def make_batch(self) -> Any:
        return mixed_batch(self.graph, self.cfg, self.rng)

    def update(self, batch: Any) -> Any:
        batch.apply_to(self.graph)
        self.csr.apply_batch(batch)
        with self.rec.span("core.apply_mixed_batch"):
            t0 = perf_counter()
            out = apply_mixed_batch(
                self.graph, self.trees[0], batch, engine=self.engine,
                use_csr_kernels=True, csr=self.csr,
            )
            self._update_ms = (perf_counter() - t0) * 1e3
        return out

    def record(self, out: Any, res: PassResult) -> None:
        res.stats.append(out)
        res.tree_update_ms.append(self._update_ms)

    def read(self, out: Any, v: int) -> None:
        tree = self.trees[0]
        if np.isfinite(tree.dist[v]):
            tree.path_to(v)


# ----------------------------------------------------------------------
class ServiceRW:
    """``UpdateService`` with one pinned-epoch reader beside the writer.

    Phase 1 offers edits on a fixed schedule (open loop) and measures
    freshness; phase 2 offers a burst as fast as back-pressure allows
    (closed loop) and measures throughput up to drain.  Edits are
    generated against a private replica of the graph, as the service
    owns its copy once started.
    """

    def __init__(self, cfg: Config, seed: int, recorder: Any,
                 seconds: float) -> None:
        self.cfg = cfg
        self.rec = recorder
        graph = road_like(cfg.n, k=1, seed=seed)
        self.replica = graph.copy()
        self.rng = np.random.default_rng([seed, 1])
        self.query_rng = np.random.default_rng([seed, 2])
        self._edits = self._edit_stream()
        # open-loop edits are made now, so generation never delays the
        # schedule; burst edits are made as the producer goes
        open_edits = round(cfg.rate * cfg.open_share * seconds)
        self.open_edits = [next(self._edits) for _ in range(open_edits)]
        self.burst_edits = round(
            cfg.burst_rate * (1.0 - cfg.open_share) * seconds
        )
        self.engine: Any = cfg.engine
        if isinstance(recorder, SpanRecorder):
            self.engine = make_engine(cfg, recorder)
        self.service = UpdateService(
            graph, center(graph), engine=self.engine, threads=cfg.workers,
            flush_size=cfg.flush_size, flush_latency=cfg.flush_latency_s,
            max_pending=cfg.max_pending,
        ).start()

    def _edit_stream(self) -> Iterator[EdgeEdit]:
        while True:
            batch = mixed_batch(self.replica, self.cfg, self.rng)
            batch.apply_to(self.replica)
            yield from edits_of(batch)

    def close(self) -> Optional[str]:
        self.service.stop(drain=False, timeout=60.0)
        if not isinstance(self.engine, str):
            return close_engine(self.engine)
        return None

    # ------------------------------------------------------------------
    def _submit(self, edit: EdgeEdit, res: PassResult) -> bool:
        if perf_counter() >= self._next_probe:
            res.slowdown.append(host_slowdown())
            self._next_probe = perf_counter() + PROBE_PERIOD_S
        res.attempted += 1
        with self.rec.span("service.submit"):
            t0 = perf_counter()
            try:
                ok = self.service.submit(edit, timeout=30.0)
            except ReproError as exc:
                res.fail(f"submit raised {exc!r}")
                return False
            res.submit_wait_ms.append((perf_counter() - t0) * 1e3)
        if not ok:
            res.fail("submit timed out under back-pressure")
        return ok

    def run(self) -> PassResult:
        res = PassResult()
        self._next_probe = 0.0
        reads = _ReaderLog()
        # the reader thread fills its own result; merged after join
        seen = PassResult()
        stop = threading.Event()
        reader = threading.Thread(
            target=self._reader, args=(stop, reads, seen),
            name="perfbench-reader", daemon=True,
        )
        reader.start()
        try:
            due = self._open_phase(res)
            self.service.drain(timeout=120.0)
            burst_start = perf_counter()
            applied0 = self.service.edits_applied
            for _ in range(self.burst_edits):
                if not self._submit(next(self._edits), res):
                    break
            drained = self.service.drain(timeout=120.0)
            burst_s = perf_counter() - burst_start
            if not drained:
                res.fail("service did not drain")
        finally:
            stop.set()
            reader.join(timeout=60.0)
        if reader.is_alive():
            res.fail("reader thread did not stop")
        res.attempted += seen.attempted
        res.failed += seen.failed
        res.correct = res.correct and seen.correct
        res.problems += seen.problems
        slow = statistics.median(res.slowdown)
        res.query_us = [q / slow for q in seen.query_us]
        res.path_to_us = seen.path_to_us
        res.verify_us = seen.verify_us
        res.queue_depth_max = seen.queue_depth_max
        res.edits = self.service.edits_applied - applied0
        res.busy_s = burst_s / slow
        res.freshness_ms = reads.freshness_ms(due)
        res.batch_ms = [
            t / slow for t in reads.epoch_intervals_ms(burst_start)
        ]
        res.epochs = self.service.epochs_published
        res.edits_per_epoch = self.service.edits_applied / max(1, res.epochs)
        self._final_check(res)
        return res

    def _open_phase(self, res: PassResult) -> List[float]:
        """Offer the open-loop edits on schedule; returns due times in
        acceptance order (acceptance order = apply order: one FIFO)."""
        due: List[float] = []
        t0 = perf_counter()
        for i, edit in enumerate(self.open_edits):
            when = t0 + i / self.cfg.rate
            wait = when - perf_counter()
            if wait > 0:
                sleep(wait)
            res.sched_lag_ms.append((perf_counter() - when) * 1e3)
            if self._submit(edit, res):
                due.append(when)
        return due

    def _reader(self, stop: threading.Event, log: "_ReaderLog",
                res: PassResult) -> None:
        svc = self.service
        n = self.cfg.n
        held = svc.snapshot()
        next_due = perf_counter()
        while not stop.is_set():
            # edits_applied is bumped after the epoch that holds those
            # edits is published, so reading it first gives a lower
            # bound on what the snapshot read next contains
            applied = svc.edits_applied
            snap = svc.snapshot()
            now = perf_counter()
            log.sighting(applied, now)
            if snap is not held:
                self._release(held, res)
                log.epochs.append(now)
                held = snap
            res.queue_depth_max = max(res.queue_depth_max, svc.queue_depth)
            v = int(self.query_rng.integers(n))
            res.attempted += 1
            with self.rec.span("service.query"):
                try:
                    q0 = perf_counter()
                    d = snap.distance(v)
                    p0 = perf_counter()
                    if np.isfinite(d):
                        snap.path_to(v)
                    q1 = perf_counter()
                except ReproError as exc:
                    res.fail(f"reader error {exc!r}")
                else:
                    res.query_us.append((q1 - q0) * 1e6)
                    res.path_to_us.append((q1 - p0) * 1e6)
            next_due += self.cfg.read_period_s
            wait = next_due - perf_counter()
            if wait > 0:
                sleep(wait)
            else:
                next_due = perf_counter()
        self._release(held, res)

    def _release(self, snap: Any, res: PassResult) -> None:
        """Re-verify a held epoch's digest as the reader lets it go."""
        with self.rec.span("service.verify"):
            t0 = perf_counter()
            ok = snap.verify() and not snap.dist.flags.writeable
            res.verify_us.append((perf_counter() - t0) * 1e6)
        if not ok:
            res.fail(f"torn read on epoch {snap.epoch}")

    def _final_check(self, res: PassResult) -> None:
        svc = self.service
        if not svc.stop(drain=True, timeout=120.0):
            res.fail(f"service stopped unclean (state {svc.state})")
        if svc.state != ServiceState.STOPPED or svc.error is not None:
            res.fail(f"service ended {svc.state}: {svc.error!r}")
        t0 = perf_counter()
        with self.rec.span("bench.oracle"):
            snap = svc.snapshot()
            ok, took, _ = oracle.check_tree(
                snap.dist, svc.graph, svc.source, 0, self.rec
            )
            ok = ok and snap.verify()
        res.oracle_s += perf_counter() - t0
        res.recompute_ms.append(took * 1e3)
        if not ok:
            res.fail("final epoch differs from Dijkstra on the drained graph")


class _ReaderLog:
    """First-sight times of applied-edit counts and of new epochs."""

    def __init__(self) -> None:
        self.counts: List[int] = []
        self.times: List[float] = []
        self.epochs: List[float] = []

    def sighting(self, applied: int, now: float) -> None:
        if not self.counts or applied > self.counts[-1]:
            self.counts.append(applied)
            self.times.append(now)

    def freshness_ms(self, due: List[float]) -> List[float]:
        """One sample per sighting that revealed new edits: the age of
        the oldest of them (edits ``counts[j-1] .. counts[j]-1`` were
        first seen at ``times[j]``).  Edits that share an epoch share
        its delay, so per-edit samples would let one slow epoch fill
        the whole tail."""
        out: List[float] = []
        for j in range(1, len(self.counts)):
            first = self.counts[j - 1]
            if first < len(due):
                out.append((self.times[j] - due[first]) * 1e3)
        return out

    def epoch_intervals_ms(self, since: float) -> List[float]:
        seen = [t for t in self.epochs if t >= since]
        return [(b - a) * 1e3 for a, b in zip(seen, seen[1:])]


WORKLOADS = {
    "mosp-insert": MospInsert,
    "sosp-mixed-shm": SospMixedShm,
    "service-rw": ServiceRW,
}


def build(name: str, seed: int, recorder: Any, seconds: float,
          cfg: Optional[Config] = None) -> Any:
    """Set up workload ``name`` sized for ``seconds`` of nominal work
    (this call is what ``setup_s`` times)."""
    return WORKLOADS[name](cfg or CONFIGS[name], seed, recorder, seconds)
