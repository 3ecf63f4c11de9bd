"""Observability utilities: ``python -m repro.obs <command>``.

``validate <trace.json>``
    Schema-check a Chrome trace file written by ``--trace``; exit 0
    when valid, 1 with one problem per line otherwise.  CI's
    ``trace-smoke`` job runs this on a fresh ``update-demo`` trace.
``report <trace> [--json] [--min-coverage F]``
    Roll a merged trace (span ``.jsonl`` log or Chrome trace file) up
    into the paper's phase taxonomy (Step 1/2/3, seed,
    dispatch overhead, worker idle/skew — see
    :mod:`repro.obs.report`).  ``--min-coverage 0.95`` exits 1 unless
    at least 95% of wall time lands in named phases.
``overhead [--gate RATIO]``
    Measure the disabled-path cost of the default (passive) tracer
    against the ``REPRO_OBS=off`` null tracer on a synthetic
    ``sosp_update`` workload.  Exits 1 when the median passive runtime
    exceeds ``gate × median`` of the no-obs baseline (default gate
    1.10 — the CI regression budget).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, TextIO

from repro.obs.clock import perf
from repro.obs.export import validate_chrome_trace
from repro.obs.report import attribute_trace, load_trace, render_text
from repro.obs.tracer import NULL_TRACER, Tracer, use_tracer

__all__ = ["main"]


def _cmd_validate(args: argparse.Namespace, out: TextIO) -> int:
    problems = validate_chrome_trace(args.path)
    if problems:
        for p in problems:
            print(p, file=out)
        return 1
    print(f"{args.path}: valid Chrome trace", file=out)
    return 0


def _cmd_report(args: argparse.Namespace, out: TextIO) -> int:
    report = attribute_trace(load_trace(args.path))
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        print(render_text(report, source=str(args.path)), file=out)
    if args.min_coverage is not None:
        if float(report["coverage"]) < args.min_coverage:
            print(
                f"coverage gate FAILED: {float(report['coverage']):.3f} < "
                f"{args.min_coverage:.3f}",
                file=out,
            )
            return 1
        print(
            f"coverage gate passed ({float(report['coverage']):.3f} >= "
            f"{args.min_coverage:.3f})",
            file=out,
        )
    return 0


def _workload_once() -> None:
    """One small Algorithm-1 update — the unit the gate times."""
    from repro.core import SOSPTree, sosp_update
    from repro.dynamic import random_insert_batch
    from repro.graph import road_like

    g = road_like(400, k=1, seed=0)
    tree = SOSPTree.build(g, 0)
    batch = random_insert_batch(g, 40, seed=1)
    batch.apply_to(g)
    sosp_update(g, tree, batch)


def _median_runtime(tracer: Tracer, repeats: int) -> float:
    times: List[float] = []
    with use_tracer(tracer):
        _workload_once()  # warm caches outside the timed repeats
        for _ in range(repeats):
            t0 = perf()
            _workload_once()
            times.append(perf() - t0)
    times.sort()
    return times[len(times) // 2]


def _cmd_overhead(args: argparse.Namespace, out: TextIO) -> int:
    baseline = _median_runtime(NULL_TRACER, args.repeats)
    passive = _median_runtime(Tracer(recording=False), args.repeats)
    ratio = passive / baseline if baseline > 0 else float("inf")
    print(
        f"no-obs baseline {baseline * 1e3:.2f} ms, "
        f"passive tracer {passive * 1e3:.2f} ms, "
        f"ratio {ratio:.3f} (gate {args.gate:.2f})",
        file=out,
    )
    if ratio > args.gate:
        print("overhead gate FAILED", file=out)
        return 1
    print("overhead gate passed", file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None) -> int:
    out = out if out is not None else sys.stdout
    p = argparse.ArgumentParser(prog="repro.obs")
    sub = p.add_subparsers(dest="command", required=True)
    v = sub.add_parser("validate", help="schema-check a Chrome trace file")
    v.add_argument("path")
    r = sub.add_parser(
        "report", help="phase-taxonomy attribution of a merged trace"
    )
    r.add_argument("path")
    r.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of text")
    r.add_argument("--min-coverage", type=float, default=None,
                   help="exit 1 unless this fraction of wall time lands "
                        "in named phases")
    o = sub.add_parser("overhead", help="disabled-tracer overhead gate")
    o.add_argument("--gate", type=float, default=1.10,
                   help="max passive/no-obs median runtime ratio")
    o.add_argument("--repeats", type=int, default=9,
                   help="timed repetitions per configuration")
    args = p.parse_args(argv)
    if args.command == "validate":
        return _cmd_validate(args, out)
    if args.command == "report":
        return _cmd_report(args, out)
    return _cmd_overhead(args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
