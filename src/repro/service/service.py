"""The always-on update service: one writer, many lock-free readers.

Threading model
---------------
One **writer thread** owns every piece of mutable state — the one
graph (a :class:`~repro.graph.csr.CSRGraph`), the SOSP tree, the
engine — and runs the ingest loop: take the next group of pending
edits, recompose it into a :class:`~repro.dynamic.changes.ChangeBatch`,
apply it (``graph.apply_batch`` → ``sosp_update`` reading that same
CSR), then publish the next
:class:`~repro.service.snapshot.EpochSnapshot`.  Publication is a
single attribute store of an immutable object, so **readers** call
:meth:`UpdateService.snapshot` without any lock and can hold the
returned epoch for as long as they like: its arrays are frozen copies
the writer never touches again (MVCC — readers pin versions, the
writer only ever creates new ones).

Lifecycle
---------
``NEW → RUNNING → DRAINING → STOPPED``, with ``FAILED`` reachable from
``RUNNING``/``DRAINING`` when a batch application raises.  A failed
service is *degraded, not gone*: the last good epoch keeps serving
reads, producers get an error instead of silent loss, and
:attr:`UpdateService.error` carries the cause.  Malformed edits never
get that far: :meth:`UpdateService.submit` refuses them with a
:class:`~repro.errors.BatchError` before they are enqueued, so one bad
edit costs its producer an error, not every client the service.
``stop(drain=True)`` closes ingest, lets the writer work the queue
dry, joins it, and releases the engine (when the service created it).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core import SOSPTree, sosp_update
# perfbench's tracing.instrument() patches this name on the module; it
# goes with the next benchmark change
from repro.core import apply_mixed_batch  # noqa: F401
from repro.dynamic.changes import KIND_DELETE, KIND_INSERT, KIND_WEIGHT
from repro.dynamic.feed import EdgeEdit, batch_of
from repro.errors import BatchError, ReproError
from repro.graph import CSRGraph, DiGraph
from repro.obs.clock import perf
from repro.obs.metrics import get_metrics, labeled_name
from repro.obs.tracer import get_tracer
from repro.parallel import resolve_engine
from repro.service.coalesce import Coalescer
from repro.service.snapshot import EpochSnapshot
from repro.types import INF

__all__ = ["ServiceState", "UpdateService"]


class ServiceState:
    """Lifecycle states (plain strings; comparable and printable)."""

    NEW = "new"
    RUNNING = "running"
    DRAINING = "draining"
    STOPPED = "stopped"
    FAILED = "failed"


class UpdateService:
    """Long-running ingest/apply/publish loop over one SOSP tree.

    Parameters
    ----------
    graph:
        The served network: a :class:`~repro.graph.csr.CSRGraph`, which
        the service takes as its :attr:`graph`, or a
        :class:`~repro.graph.digraph.DiGraph`, frozen into one.  After
        :meth:`start`, only the writer thread may touch it; static
        solvers compact it in place, so run them on :attr:`graph` only
        after :meth:`stop`.
    source:
        Source vertex of the maintained tree.
    engine:
        An engine instance, or an engine name for
        :func:`~repro.parallel.resolve_engine` (the service closes
        engines it resolved itself; instances stay caller-owned).
    flush_size / max_pending:
        Group-commit policy — see
        :class:`~repro.service.coalesce.Coalescer`.
    flush_latency:
        Accepted and ignored: groups are no longer held for a timer.
        Kept only because the benchmark harness still passes it; the
        next benchmark change removes it.
    """

    def __init__(
        self,
        graph: Union[CSRGraph, DiGraph],
        source: int = 0,
        *,
        engine: Union[str, Any] = "serial",
        threads: int = 4,
        flush_size: int = 128,
        flush_latency: float = 0.05,
        max_pending: int = 4096,
    ) -> None:
        self.graph = (
            graph if isinstance(graph, CSRGraph)
            else CSRGraph.from_digraph(graph)
        )
        self.source = int(source)
        self._own_engine = isinstance(engine, str)
        self.engine = (
            resolve_engine(engine, threads=threads)
            if isinstance(engine, str) else engine
        )
        self.tree = SOSPTree.build(self.graph, self.source)
        self.coalescer = Coalescer(
            flush_size=flush_size, max_pending=max_pending
        )
        self.state = ServiceState.NEW
        self.error: Optional[BaseException] = None
        self.epochs_published = 0
        self.edits_applied = 0
        self.batches_applied = 0
        self._thread: Optional[threading.Thread] = None
        self._in_flight = 0
        self._idle = threading.Condition()
        self._snapshot: EpochSnapshot = self._freeze_epoch(0)

    # ------------------------------------------------------------ reads
    def snapshot(self) -> EpochSnapshot:
        """The current epoch — lock-free, immutable, holdable forever."""
        return self._snapshot

    @property
    def queue_depth(self) -> int:
        return self.coalescer.depth

    # -------------------------------------------------------- lifecycle
    def start(self) -> "UpdateService":
        if self.state != ServiceState.NEW:
            raise ReproError(
                f"start() in state {self.state!r}; services are "
                f"single-use (build a new one)"
            )
        self.state = ServiceState.RUNNING
        self._thread = threading.Thread(
            target=self._run, name="repro-update-service", daemon=True
        )
        self._thread.start()
        return self

    def submit(
        self, edit: EdgeEdit, timeout: Optional[float] = None
    ) -> bool:
        """Offer one edit; blocks under back-pressure.

        Returns ``False`` when the queue stayed full for ``timeout``
        seconds.  Raises once the service stopped accepting (drained,
        stopped, or failed), and raises :class:`BatchError` for an
        edit the writer could not apply (counted in
        ``service_rejected_edits_total{reason}``).
        """
        if self.state not in (ServiceState.RUNNING,):
            raise ReproError(f"submit() in state {self.state!r}")
        bad = self._check(edit)
        if bad is not None:
            reason, why = bad
            get_metrics().counter(
                labeled_name("service_rejected_edits_total",
                             {"reason": reason}),
                "edits refused at submit(), by reason",
            ).inc()
            raise BatchError(f"rejected {edit!r}: {why}")
        return self.coalescer.offer(edit, timeout=timeout)

    def _check(self, edit: EdgeEdit) -> Optional[Tuple[str, str]]:
        """``(reason, message)`` when ``edit`` must not be enqueued.

        Scalar checks only: this runs on the producer's thread for
        every edit."""
        kind, u, v, weights = edit
        if kind not in (KIND_DELETE, KIND_INSERT, KIND_WEIGHT):
            return "kind", f"unknown kind {kind!r}"
        n = self.graph.n
        if not (0 <= u < n and 0 <= v < n):
            return "vertex", f"endpoint outside [0, {n})"
        if kind == KIND_DELETE:
            return None
        k = self.graph.k
        if weights is None or len(weights) != k:
            return "arity", f"expected {k} weights"
        for w in weights:
            if not 0.0 <= w < INF:  # also false for NaN
                return "weight", f"weight {w!r} is not finite and >= 0"
        return None

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every accepted edit is applied and published.

        Returns ``False`` on timeout (or when the writer failed before
        the queue emptied).  Producers should be quiet while draining —
        new edits extend the wait.
        """
        deadline = None if timeout is None else perf() + float(timeout)
        with self._idle:
            while True:
                if self.state == ServiceState.FAILED:
                    return False
                # exact accounting (not queue emptiness): an edit is
                # outstanding from the moment offer() accepted it until
                # the writer published its epoch, so the window where a
                # flush group left the queue but is still being applied
                # never reads as drained
                if self.edits_applied >= self.coalescer.offered_total:
                    return True
                if self.state == ServiceState.STOPPED:
                    return False
                wait = 0.5
                if deadline is not None:
                    remaining = deadline - perf()
                    if remaining <= 0:
                        return False
                    wait = min(wait, remaining)
                self._idle.wait(wait)

    def stop(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> bool:
        """Stop the service (idempotent); returns ``True`` on a clean
        drain-and-join.

        ``drain=True`` lets the writer work the queue dry first;
        ``drain=False`` abandons pending edits (they were never
        acknowledged as applied — the graph stays consistent with the
        last published epoch).  The engine is closed iff the service
        resolved it from a name.
        """
        if self.state in (ServiceState.STOPPED, ServiceState.NEW):
            if self.state == ServiceState.NEW:
                self.state = ServiceState.STOPPED
                self._close_engine()
            return True
        clean = True
        if self.state == ServiceState.RUNNING:
            self.state = (
                ServiceState.DRAINING if drain else ServiceState.STOPPED
            )
        self.coalescer.close()
        if self._thread is not None:
            self._thread.join(timeout)
            clean = not self._thread.is_alive()
            self._thread = None
        if self.state != ServiceState.FAILED:
            self.state = ServiceState.STOPPED
        self._close_engine()
        return clean and self.state == ServiceState.STOPPED

    def _close_engine(self) -> None:
        closer = getattr(self.engine, "close", None)
        if self._own_engine and callable(closer):
            closer()

    # ------------------------------------------------------ writer side
    def _run(self) -> None:
        tracer = get_tracer()
        metrics = get_metrics()
        depth_gauge = metrics.gauge(
            "service_queue_depth", "edits pending in the ingest coalescer"
        )
        batch_hist = metrics.histogram(
            "service_batch_seconds", "apply+publish seconds per flush group"
        )
        fresh_hist = metrics.histogram(
            "service_freshness_seconds",
            "age of each group's oldest edit when its epoch is published",
        )
        epoch_counter = metrics.counter(
            "service_epochs_total", "snapshots published since start"
        )
        edit_counter = metrics.counter(
            "service_edits_total", "edge edits applied since start"
        )
        try:
            while True:
                edits = self.coalescer.take(timeout=0.1)
                depth_gauge.set(float(self.coalescer.depth))
                if not edits:
                    if self.coalescer.closed and self.coalescer.depth == 0:
                        break
                    if (
                        self.state == ServiceState.STOPPED
                    ):  # stop(drain=False): abandon the queue
                        break
                    with self._idle:
                        self._idle.notify_all()
                    continue
                with self._idle:
                    self._in_flight = len(edits)
                t0 = perf()
                with tracer.span(
                    "service.batch", edits=len(edits),
                    epoch=self.epochs_published + 1,
                ):
                    self._apply(edits)
                    self._publish()
                t1 = perf()
                batch_hist.observe(t1 - t0)
                fresh_hist.observe(t1 - self.coalescer.taken_since)
                epoch_counter.inc()
                edit_counter.inc(float(len(edits)))
                self.edits_applied += len(edits)
                self.batches_applied += 1
                with self._idle:
                    self._in_flight = 0
                    self._idle.notify_all()
        except BaseException as exc:  # repro: noqa(R003) - captured on self.error; state goes FAILED, producers get errors
            self.error = exc
            self.state = ServiceState.FAILED
            self.coalescer.close()
            with self._idle:
                self._in_flight = 0
                self._idle.notify_all()

    def _apply(self, edits: List[EdgeEdit]) -> None:
        batch = batch_of(edits, k=self.graph.k)
        self.graph.apply_batch(batch)
        sosp_update(self.graph, self.tree, batch, engine=self.engine)

    def _freeze_epoch(self, epoch: int) -> EpochSnapshot:
        stamp = self.graph.stamp
        publish = getattr(self.engine, "publish_snapshot", None)
        if callable(publish):
            arrays: Dict[str, Any] = publish(
                {"dist": self.tree.dist, "parent": self.tree.parent}, stamp
            )
            return EpochSnapshot(
                epoch, self.source, arrays["dist"], arrays["parent"], stamp
            )
        return EpochSnapshot(
            epoch, self.source, self.tree.dist, self.tree.parent, stamp
        )

    def _publish(self) -> None:
        snap = self._freeze_epoch(self.epochs_published + 1)
        # single reference store: readers see the old epoch or this one
        self._snapshot = snap
        self.epochs_published += 1

    # ------------------------------------------------------------ sugar
    def __enter__(self) -> "UpdateService":
        return self.start() if self.state == ServiceState.NEW else self

    def __exit__(self, *exc: object) -> None:
        self.stop(drain=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UpdateService(state={self.state}, "
            f"epoch={self._snapshot.epoch}, depth={self.queue_depth}, "
            f"engine={getattr(self.engine, 'name', self.engine)!r})"
        )
