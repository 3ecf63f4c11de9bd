"""Mixed read/write load generator with torn-read verification.

Drives a running :class:`~repro.service.service.UpdateService` from
both sides at once: a producer feeds it a seeded stream of edge edits
(back-pressured through ``submit``), while reader threads hammer
:meth:`~repro.service.service.UpdateService.snapshot` with path/
distance queries.  Every reader *proves* snapshot isolation on every
query round:

- the held epoch's BLAKE2b digest must re-verify (bytes unchanged
  since publication — no torn read), and
- its arrays must still refuse writes (immutability was not lost on
  the way through an engine wrapper).

The result is a :class:`LoadReport` with sustained updates/sec and
query latency percentiles — the numbers the service benchmark ledgers
and the CI smoke job assert on.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, List, Optional

import numpy as np

from repro.dynamic.feed import stream_edits
from repro.dynamic.stream import ChangeStream
from repro.errors import ReproError
from repro.obs.clock import perf
from repro.obs.metrics import percentile
from repro.service.service import ServiceState, UpdateService

__all__ = ["LoadReport", "run_load"]


class LoadReport:
    """Outcome of one load-generator run (all fields public)."""

    __slots__ = (
        "edits_offered", "edits_applied", "epochs", "queries",
        "torn_reads", "reader_errors", "wall_seconds",
        "updates_per_sec", "query_p50_s", "query_p99_s", "drained",
    )

    def __init__(self, **kw: Any) -> None:
        for name in self.__slots__:
            setattr(self, name, kw[name])

    @property
    def clean(self) -> bool:
        """True iff the run proved the service's guarantees."""
        return bool(
            self.torn_reads == 0 and self.reader_errors == 0 and self.drained
        )

    def to_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LoadReport({self.to_dict()!r})"


def _reader(
    service: UpdateService,
    rng: np.random.Generator,
    stop: threading.Event,
    target: int,
    counters: Dict[str, int],
    latencies: List[float],
    lock: threading.Lock,
) -> None:
    n = service.snapshot().num_vertices
    while True:
        with lock:
            if counters["queries"] >= target and stop.is_set():
                return
        snap = service.snapshot()
        v = int(rng.integers(0, n))
        t0 = perf()
        torn = 0
        errors = 0
        try:
            d = snap.distance(v)
            if np.isfinite(d):
                snap.path_to(v)
        except Exception:  # repro: noqa(R003) - counted; any error fails report.clean loudly
            errors += 1
        dt = perf() - t0
        # the isolation proof: held-epoch bytes unchanged + still frozen
        if not snap.verify():
            torn += 1
        if snap.dist.flags.writeable or snap.parent.flags.writeable:
            torn += 1
        with lock:
            counters["queries"] += 1
            counters["torn"] += torn
            counters["errors"] += errors
            latencies.append(dt)


def run_load(
    service: UpdateService,
    *,
    edits: int = 200,
    queries: int = 1000,
    readers: int = 2,
    batch_size: int = 25,
    seed: int = 0,
    insert_fraction: float = 0.7,
    weight_change_fraction: float = 0.15,
    submit_timeout: Optional[float] = 30.0,
    drain_timeout: Optional[float] = 120.0,
) -> LoadReport:
    """Drive ``edits`` writes and ``>= queries`` verified reads.

    The service must already be running.  Edits are generated against a
    private :class:`~repro.graph.digraph.DiGraph` replica thawed from
    the service's CSR (the service's graph is writer-thread-owned), so
    generation sees the evolving topology without racing the writer.
    """
    if service.state != ServiceState.RUNNING:
        raise ReproError(
            f"run_load needs a running service, got {service.state!r}"
        )
    replica = service.graph.to_digraph()
    steps = max(1, -(-edits // max(1, batch_size)))
    stream = ChangeStream(
        replica, batch_size=max(1, batch_size), steps=steps,
        insert_fraction=insert_fraction,
        weight_change_fraction=weight_change_fraction, seed=seed,
    )
    edit_iter = itertools.islice(stream_edits(stream), edits)

    stop = threading.Event()
    lock = threading.Lock()
    counters = {"queries": 0, "torn": 0, "errors": 0}
    latencies: List[float] = []
    threads = [
        threading.Thread(
            target=_reader,
            args=(service, np.random.default_rng(seed + 1 + i), stop,
                  queries, counters, latencies, lock),
            name=f"repro-loadgen-reader-{i}",
            daemon=True,
        )
        for i in range(max(1, readers))
    ]
    for t in threads:
        t.start()

    offered = 0
    t0 = perf()
    for edit in edit_iter:
        try:
            if not service.submit(edit, timeout=submit_timeout):
                break  # back-pressure timeout: report what we sustained
        except ReproError:
            break  # service failed/stopped mid-run; the report shows it
        offered += 1
    drained = service.drain(timeout=drain_timeout)
    wall = perf() - t0

    stop.set()
    for t in threads:
        t.join(timeout=60.0)
    with lock:
        lat = sorted(latencies)
        report = LoadReport(
            edits_offered=offered,
            edits_applied=service.edits_applied,
            epochs=service.epochs_published,
            queries=counters["queries"],
            torn_reads=counters["torn"],
            reader_errors=counters["errors"],
            wall_seconds=wall,
            updates_per_sec=(
                service.edits_applied / wall if wall > 0 else 0.0
            ),
            query_p50_s=percentile(lat, 0.50) if lat else 0.0,
            query_p99_s=percentile(lat, 0.99) if lat else 0.0,
            drained=drained,
        )
    return report
