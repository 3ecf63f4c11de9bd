"""Acceptance bench: the always-on update service under mixed load.

Starts an :class:`~repro.service.service.UpdateService` on the shm
engine and drives it with the load generator: a seeded stream of
insert/delete/re-weight edits through the back-pressured ingest path,
concurrent reader threads issuing digest-verified path queries against
the published MVCC epochs.  The run is only trusted — and the table
only written — when it proves the service's guarantees: zero torn
reads, zero reader errors, a clean drain.

Writes ``results/service_load.txt``: sustained updates/sec and the
query latency percentiles under concurrent load, from one smoke run
(the measured service numbers come from perfbench's ``service-rw``).
"""

from __future__ import annotations

import pytest
from conftest import write_result

from repro.bench.report import render_table
from repro.graph import road_like
from repro.service import UpdateService, run_load

SMOKE_N = 1200
SMOKE_EDITS = 240
SMOKE_QUERIES = 1200
SMOKE_READERS = 2
SMOKE_WORKERS = 2

FULL_N = 12000
FULL_EDITS = 2000
FULL_QUERIES = 10000


def _drive(n, edits, queries, readers, workers, seed):
    g = road_like(n, k=1, seed=seed)
    service = UpdateService(
        g, 0, engine="shm", threads=workers,
        flush_size=64,
    )
    service.start()
    try:
        report = run_load(
            service, edits=edits, queries=queries, readers=readers,
            seed=seed, insert_fraction=0.7, weight_change_fraction=0.15,
        )
    finally:
        service.stop(drain=True)
    assert service.error is None, f"service failed: {service.error}"
    assert report.clean, (
        f"load run violated the service guarantees: "
        f"torn={report.torn_reads}, errors={report.reader_errors}, "
        f"drained={report.drained}"
    )
    return g, report


def _rows(report):
    return [
        {
            "metric": "sustained updates/sec",
            "value": f"{report.updates_per_sec:,.0f}",
        },
        {"metric": "epochs published", "value": str(report.epochs)},
        {"metric": "verified queries", "value": str(report.queries)},
        {
            "metric": "query p50",
            "value": f"{report.query_p50_s * 1e6:,.0f} us",
        },
        {
            "metric": "query p99",
            "value": f"{report.query_p99_s * 1e6:,.0f} us",
        },
        {"metric": "torn reads", "value": str(report.torn_reads)},
    ]


def test_service_smoke(results_dir, bench_seed):
    """CI smoke: prove the guarantees, render the service table."""
    g, report = _drive(
        SMOKE_N, SMOKE_EDITS, SMOKE_QUERIES, SMOKE_READERS,
        SMOKE_WORKERS, bench_seed,
    )
    assert report.edits_applied == SMOKE_EDITS
    assert report.queries >= SMOKE_QUERIES
    assert report.epochs >= 3
    title = (f"update service under mixed load "
             f"(road n={g.num_vertices}, shm x{SMOKE_WORKERS})")
    table = render_table(_rows(report), ("metric", "value"))
    write_result(results_dir, "service_load.txt", f"{title}\n{table}")


@pytest.mark.slow
def test_service_sustained_full(bench_seed):
    """Full run: a larger network, 2k edits, 10k verified queries."""
    _g, report = _drive(
        FULL_N, FULL_EDITS, FULL_QUERIES, SMOKE_READERS,
        SMOKE_WORKERS, bench_seed,
    )
    assert report.edits_applied == FULL_EDITS
