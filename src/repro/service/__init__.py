"""Always-on update service: streaming ingest over the update kernels.

The paper's setting is a *rapidly growing* network whose change
batches arrive continuously; the repo's CLI commands, by contrast, run
one batch sequence and exit.  This package is the long-lived middle
layer (ROADMAP item 2): an :class:`~repro.service.service.UpdateService`
that

1. **ingests** individual :class:`~repro.dynamic.feed.EdgeEdit` events
   into a bounded, back-pressured queue,
2. **coalesces** them into :class:`~repro.dynamic.changes.ChangeBatch`
   batches by group commit — an idle writer takes every pending edit,
   up to ``flush_size``, at once
   (:class:`~repro.service.coalesce.Coalescer` — the BatchHL-style
   batch-dynamic serving shape), and
3. **applies** each batch through ``sosp_update`` /
   ``apply_mixed_batch`` on a single writer thread, publishing an
   epoch-stamped immutable :class:`~repro.service.snapshot.EpochSnapshot`
   of dist/parent after every batch,

so concurrent path queries never block on — or observe a torn — update
(MVCC: readers pin an epoch, writers publish the next one).
:mod:`repro.service.loadgen` drives a mixed read/write load against a
running service and verifies the torn-read guarantee end to end.
"""

from repro.service.coalesce import Coalescer
from repro.service.loadgen import LoadReport, run_load
from repro.service.service import ServiceState, UpdateService
from repro.service.snapshot import EpochSnapshot

__all__ = [
    "Coalescer",
    "EpochSnapshot",
    "LoadReport",
    "ServiceState",
    "UpdateService",
    "run_load",
]
