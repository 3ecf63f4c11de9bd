"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Package, algorithm, and engine inventory.
``generate``
    Write a synthetic network (road-like / rgg / erdos-renyi) as an
    edge list.
``sssp``
    Single-objective shortest paths over an edge-list file.
``mosp``
    One balanced (or priority-weighted) multi-objective path between
    two vertices of an edge-list file.
``update-demo``
    Play random insertion (or, with ``--insert-fraction`` /
    ``--weight-change-fraction``, mixed insert/delete/re-weight)
    batches over a file or synthetic network and report per-batch
    incremental-update statistics.
``serve``
    Run the always-on update service over a synthetic edit feed:
    streaming ingest, group-commit coalescing, epoch-stamped MVCC
    snapshots, clean drain/stop.
``serve-load``
    Load-generate against a running service — concurrent mixed edits
    and verified path queries — and report sustained updates/sec,
    query latency percentiles, and torn-read violations (non-zero
    exit on any violation; the CI smoke gate).

Every command reads/writes the edge-list format of
:mod:`repro.graph.io` (``u v w1 [.. wk]`` lines).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from repro._version import __version__
from repro.core import SOSPTree, mosp_update, sosp_update
from repro.dynamic import random_insert_batch, random_mixed_batch
from repro.errors import ReproError
from repro.graph import (
    CSRGraph,
    DiGraph,
    erdos_renyi,
    random_geometric,
    road_like,
)
from repro.graph.io import read_edge_list, write_edge_list
from repro.obs import (
    CLOCK_SOURCE,
    EXPORTERS,
    Tracer,
    export_chrome_trace,
    export_jsonl,
    export_prometheus,
    get_metrics,
    get_tracer,
    use_metrics,
    use_tracer,
)
from repro.parallel import (
    SharedMemoryEngine,
    engine_observability,
    resolve_engine,
)
from repro.parallel.api import _engine_table
from repro.sssp import recompute_sssp

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser (exposed for tests and docs)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Parallel single/multi-objective shortest-path updates in "
            "dynamic networks (Khanda, Shovan & Das, SC-W 2023)"
        ),
    )
    p.add_argument("--version", action="version",
                   version=f"repro {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package and engine inventory")

    g = sub.add_parser("generate", help="write a synthetic network")
    g.add_argument("family", choices=("road", "rgg", "er"))
    g.add_argument("output", help="edge-list path to write")
    g.add_argument("-n", type=int, default=1000, help="vertex count")
    g.add_argument("-m", type=int, default=None,
                   help="edge count (er only; default 4n)")
    g.add_argument("-k", type=int, default=2, help="objectives per edge")
    g.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("sssp", help="single-objective shortest paths")
    s.add_argument("graph", help="edge-list file")
    s.add_argument("--source", type=int, default=0)
    s.add_argument("--objective", type=int, default=0)
    s.add_argument("--algorithm", default="dijkstra",
                   choices=("dijkstra", "bellman_ford", "delta_stepping"))
    s.add_argument("--target", type=int, default=None,
                   help="print the path to this vertex")
    _add_obs_flags(s)

    m = sub.add_parser("mosp", help="one multi-objective shortest path")
    m.add_argument("graph", help="edge-list file")
    m.add_argument("--source", type=int, default=0)
    m.add_argument("--target", type=int, required=True)
    m.add_argument("--weighting", default="balanced",
                   choices=("balanced", "unit", "priority"))
    m.add_argument("--priorities", type=float, nargs="+", default=None)
    m.add_argument("--engine", default="serial",
                   choices=tuple(_engine_table()))
    m.add_argument("--threads", type=int, default=4)
    _add_obs_flags(m)

    u = sub.add_parser("update-demo",
                       help="incremental updates over random batches")
    u.add_argument("graph", nargs="?", default=None,
                   help="edge-list file (default: synthetic road, n=2000)")
    u.add_argument("--source", type=int, default=0)
    u.add_argument("--steps", type=int, default=3)
    u.add_argument("--batch-size", type=int, default=50)
    u.add_argument("--seed", type=int, default=0)
    u.add_argument("--engine", default="serial",
                   choices=tuple(_engine_table()))
    u.add_argument("--threads", type=int, default=4)
    u.add_argument(
        "--insert-fraction", type=float, default=1.0,
        help="fraction of each batch that inserts edges; the rest "
        "deletes (and re-weights, with --weight-change-fraction) live "
        "edges",
    )
    u.add_argument(
        "--weight-change-fraction", type=float, default=0.0,
        help="fraction of each batch that re-weights live edges "
        "(requires insert fraction + weight-change fraction <= 1)",
    )
    u.add_argument(
        "--min-dispatch-items", type=int, default=None,
        help="replace the shm engine's measured dispatch policy by a "
        "static threshold (slab supersteps below it run inline on the "
        "master); pass 1 to force real worker dispatch on small demo "
        "graphs, e.g. for cross-process traces (--engine shm only)",
    )
    _add_obs_flags(u)

    sv = sub.add_parser(
        "serve",
        help="run the always-on update service over a synthetic feed",
    )
    _add_serve_flags(sv)
    _add_obs_flags(sv)

    sl = sub.add_parser(
        "serve-load",
        help="mixed read/write load against the service; verifies "
        "snapshot isolation and reports updates/sec + query p99",
    )
    _add_serve_flags(sl)
    sl.add_argument("--queries", type=int, default=1000,
                    help="minimum verified path queries across readers")
    sl.add_argument("--readers", type=int, default=2,
                    help="concurrent reader threads")
    _add_obs_flags(sl)
    return p


def _add_serve_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("graph", nargs="?", default=None,
                     help="edge-list file (default: synthetic road, n=2000)")
    sub.add_argument("--source", type=int, default=0)
    sub.add_argument("--edits", type=int, default=200,
                     help="total edge edits fed through the service")
    sub.add_argument("--batch-size", type=int, default=25,
                     help="edits per generated feed step")
    sub.add_argument("--flush-size", type=int, default=64,
                     help="largest group of edits one epoch applies")
    sub.add_argument("--max-pending", type=int, default=4096,
                     help="ingest back-pressure bound")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--engine", default="serial",
                     choices=tuple(_engine_table()))
    sub.add_argument("--threads", type=int, default=4)
    sub.add_argument(
        "--insert-fraction", type=float, default=0.7,
        help="fraction of the feed that inserts edges (rest deletes / "
        "re-weights)",
    )
    sub.add_argument("--weight-change-fraction", type=float, default=0.15)
    sub.add_argument(
        "--min-dispatch-items", type=int, default=None,
        help="shm static dispatch threshold (see update-demo)",
    )


def _add_obs_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record superstep spans; write a Chrome trace-event JSON "
        "file (or JSONL span log when PATH ends in .jsonl)",
    )
    sub.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="collect algorithm metrics; write Prometheus text format",
    )


def _load(path: str) -> DiGraph:
    return read_edge_list(path)


def _cmd_info(args, out) -> int:
    print(f"repro {__version__}", file=out)
    print("paper: Khanda, Shovan & Das, SC-W 2023 "
          "(doi:10.1145/3624062.3625134)", file=out)
    print("algorithms: sosp_update (Alg 1, fully dynamic), "
          "mosp_update (Alg 2)", file=out)
    print("baselines: dijkstra, bellman_ford, frontier_bellman_ford, "
          "delta_stepping, martins", file=out)
    print(f"engines: {', '.join(_engine_table())}", file=out)
    print(f"observability: tracer {get_tracer().describe()}, "
          f"clock {CLOCK_SOURCE}, "
          f"exporters {', '.join(EXPORTERS)}", file=out)
    caps = engine_observability()
    print("worker spans: "
          + ", ".join(f"{name} {cap}" for name, cap in sorted(caps.items())),
          file=out)
    return 0


def _cmd_generate(args, out) -> int:
    if args.family == "road":
        g = road_like(args.n, k=args.k, seed=args.seed)
    elif args.family == "rgg":
        g = random_geometric(args.n, k=args.k, seed=args.seed)
    else:
        m = args.m if args.m is not None else 4 * args.n
        g = erdos_renyi(args.n, m, k=args.k, seed=args.seed)
    write_edge_list(g, args.output)
    print(f"wrote {g.num_vertices} vertices / {g.num_edges} edges "
          f"(k={g.num_objectives}) to {args.output}", file=out)
    return 0


def _cmd_sssp(args, out) -> int:
    g = _load(args.graph)
    dist, parent = recompute_sssp(
        g, args.source, args.objective, args.algorithm
    )
    reachable = int(np.isfinite(dist).sum())
    finite = dist[np.isfinite(dist)]
    print(f"source {args.source}: {reachable}/{g.num_vertices} reachable, "
          f"max dist {finite.max():.4g}" if reachable
          else "source reaches nothing", file=out)
    if args.target is not None:
        tree = SOSPTree(args.source, dist, parent, args.objective)
        path = tree.path_to(args.target)
        print("path:", " -> ".join(map(str, path)), file=out)
        print(f"distance: {dist[args.target]:.6g}", file=out)
    return 0


def _cmd_mosp(args, out) -> int:
    g = _load(args.graph)
    engine = resolve_engine(args.engine, threads=args.threads)
    trees = [
        SOSPTree.build(g, args.source, objective=i)
        for i in range(g.num_objectives)
    ]
    try:
        r = mosp_update(g, trees, engine=engine, weighting=args.weighting,
                        priorities=args.priorities)
    finally:
        closer = getattr(engine, "close", None)
        if callable(closer):
            closer()
    path = r.path_to(args.target)
    print("path:", " -> ".join(map(str, path)), file=out)
    print("cost:", np.round(r.cost_to(args.target), 6).tolist(), file=out)
    for i, t in enumerate(trees):
        print(f"objective {i} optimum: {t.dist[args.target]:.6g}",
              file=out)
    return 0


def _cli_engine(args):
    """Engine instance for update-demo, serve and serve-load.

    :func:`main` has already refused ``--min-dispatch-items`` for every
    engine but shm.
    """
    if args.min_dispatch_items is not None:
        return resolve_engine(SharedMemoryEngine(
            threads=args.threads,
            min_dispatch_items=int(args.min_dispatch_items)))
    return resolve_engine(args.engine, threads=args.threads)


def _cmd_update_demo(args, out) -> int:
    tracer = get_tracer()
    with tracer.span("setup.load") as sp_load:
        g = _load(args.graph) if args.graph else road_like(2000, k=1,
                                                           seed=args.seed)
        sp_load.set(vertices=g.num_vertices, edges=g.num_edges)
    engine = _cli_engine(args)
    # the updates read one CSR graph, mutated batch by batch; ``g``
    # stays only as the batch generators' replica
    with tracer.span("setup.snapshot"):
        csr = CSRGraph.from_digraph(g)
    with tracer.span("setup.build_tree"):
        tree = SOSPTree.build(csr, args.source)
    print(f"graph: {g.num_vertices} vertices, {g.num_edges} edges "
          f"(engine: {engine.name}, csr kernels)", file=out)
    mixed = (
        args.insert_fraction < 1.0 or args.weight_change_fraction > 0.0
    )
    for step in range(1, args.steps + 1):
        with tracer.span("setup.batch", step=step):
            if mixed:
                batch = random_mixed_batch(
                    g, args.batch_size, seed=args.seed + step,
                    insert_fraction=args.insert_fraction,
                    weight_change_fraction=args.weight_change_fraction,
                )
            else:
                batch = random_insert_batch(g, args.batch_size,
                                            seed=args.seed + step)
            batch.apply_to(g)
            csr.apply_batch(batch)
        stats = sosp_update(csr, tree, batch, engine=engine)
        extra = (f", {stats.invalidated} invalidated"
                 f" (-{batch.num_deletions}"
                 f" ~{batch.num_weight_changes} edges)") if mixed else ""
        print(
            f"step {step}: +{batch.num_insertions} edges{extra}, "
            f"{stats.affected_total} improvements over "
            f"{stats.iterations} iterations, "
            f"{stats.relaxations} relaxations", file=out,
        )
    closer = getattr(engine, "close", None)
    if callable(closer):
        with tracer.span("teardown.close"):
            closer()  # release pool workers / shared segments promptly
    return 0


def _make_service(args):
    from repro.service import UpdateService

    g = _load(args.graph) if args.graph else road_like(2000, k=1,
                                                       seed=args.seed)
    engine = _cli_engine(args)
    service = UpdateService(
        g, args.source, engine=engine,
        flush_size=args.flush_size, max_pending=args.max_pending,
    )
    return service, engine


def _cmd_serve(args, out) -> int:
    from itertools import islice

    from repro.dynamic.feed import stream_edits
    from repro.dynamic.stream import ChangeStream
    from repro.obs.clock import perf

    service, engine = _make_service(args)
    g = service.graph
    print(f"serving: {g.n} vertices, {g.num_edges} edges "
          f"(engine: {engine.name}, flush {args.flush_size} edits)",
          file=out)
    replica = g.to_digraph()
    steps = max(1, -(-args.edits // max(1, args.batch_size)))
    stream = ChangeStream(
        replica, batch_size=max(1, args.batch_size), steps=steps,
        insert_fraction=args.insert_fraction,
        weight_change_fraction=args.weight_change_fraction,
        seed=args.seed,
    )
    service.start()
    t0 = perf()
    offered = 0
    for edit in islice(stream_edits(stream), args.edits):
        service.submit(edit)
        offered += 1
    drained = service.drain(timeout=300.0)
    wall = perf() - t0
    clean = service.stop(drain=True)
    closer = getattr(engine, "close", None)
    if callable(closer):
        closer()  # the CLI owns the engine instance, not the service
    snap = service.snapshot()
    rate = service.edits_applied / wall if wall > 0 else 0.0
    print(f"ingested {offered} edits -> {service.batches_applied} batches "
          f"-> {service.epochs_published} epochs "
          f"({rate:.0f} edits/s sustained)", file=out)
    print(f"final epoch {snap.epoch}: digest {snap.digest[:12]}, "
          f"drain {'clean' if drained else 'TIMED OUT'}, "
          f"stop {'clean' if clean else 'UNCLEAN'}, "
          f"state {service.state}", file=out)
    if service.error is not None:
        print(f"service error: {service.error}", file=out)
        return 1
    return 0 if (drained and clean) else 1


def _cmd_serve_load(args, out) -> int:
    from repro.service import run_load

    service, engine = _make_service(args)
    g = service.graph
    print(f"serving: {g.n} vertices, {g.num_edges} edges "
          f"(engine: {engine.name}, {args.readers} readers)", file=out)
    service.start()
    report = run_load(
        service, edits=args.edits, queries=args.queries,
        readers=args.readers, batch_size=args.batch_size, seed=args.seed,
        insert_fraction=args.insert_fraction,
        weight_change_fraction=args.weight_change_fraction,
    )
    clean_stop = service.stop(drain=True)
    closer = getattr(engine, "close", None)
    if callable(closer):
        closer()  # the CLI owns the engine instance, not the service
    print(f"writes: {report.edits_applied}/{report.edits_offered} edits "
          f"applied over {report.epochs} epochs "
          f"({report.updates_per_sec:.0f} updates/s sustained)", file=out)
    print(f"reads: {report.queries} verified queries, "
          f"p50 {report.query_p50_s * 1e6:.0f} us, "
          f"p99 {report.query_p99_s * 1e6:.0f} us", file=out)
    print(f"isolation: {report.torn_reads} torn reads, "
          f"{report.reader_errors} reader errors, "
          f"drain {'clean' if report.drained else 'TIMED OUT'}, "
          f"stop {'clean' if clean_stop else 'UNCLEAN'}", file=out)
    if service.error is not None:
        print(f"service error: {service.error}", file=out)
    return 0 if (report.clean and clean_stop) else 1


_COMMANDS = {
    "info": _cmd_info,
    "generate": _cmd_generate,
    "sssp": _cmd_sssp,
    "mosp": _cmd_mosp,
    "update-demo": _cmd_update_demo,
    "serve": _cmd_serve,
    "serve-load": _cmd_serve_load,
}


def _run_with_obs(args, out) -> int:
    """Run the command under a recording tracer / enabled metrics
    registry (``--trace`` / ``--metrics``), then export."""
    tracer = Tracer(recording=True)
    with use_tracer(tracer), use_metrics():
        with tracer.span(f"cli.{args.command}"):
            code = _COMMANDS[args.command](args, out)
        registry = get_metrics()
    if args.trace is not None:
        spans = tracer.drain()
        if str(args.trace).endswith(".jsonl"):
            n = export_jsonl(spans, args.trace)
            print(f"wrote {n} spans to {args.trace}", file=out)
        else:
            n = export_chrome_trace(spans, args.trace, metrics=registry)
            print(f"wrote {n} trace events to {args.trace}", file=out)
    if args.metrics is not None:
        n = export_prometheus(registry, args.metrics)
        print(f"wrote {n} metric samples to {args.metrics}", file=out)
    return code


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if (
        getattr(args, "min_dispatch_items", None) is not None
        and args.engine != "shm"
    ):
        parser.error("--min-dispatch-items applies only to --engine shm")
    try:
        if getattr(args, "trace", None) or getattr(args, "metrics", None):
            return _run_with_obs(args, out)
        return _COMMANDS[args.command](args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
