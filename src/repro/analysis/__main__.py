"""Command-line entry point: ``python -m repro.analysis src tests``.

Exit status: 0 clean (no non-baselined findings), 1 findings,
2 bad invocation / unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Set

from repro.analysis.output import (
    DEFAULT_BASELINE,
    load_baseline,
    render_findings,
    save_baseline,
    split_baselined,
)
from repro.analysis.rules import ALL_RULES
from repro.analysis.runner import lint_paths


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Concurrency-invariant analyzer for the repro package "
            "(rules R000-R007; see docs/INVARIANTS.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--select",
        "--rules",
        dest="select",
        metavar="CODES",
        help="comma-separated rule codes to run (e.g. R001,R006)",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=("text", "json", "sarif", "github"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        metavar="FILE",
        help=(
            "baseline of grandfathered findings (default: "
            f"{DEFAULT_BASELINE}; silently skipped when absent)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file entirely",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="lint files across N worker processes (default: 1)",
    )
    parser.add_argument(
        "--no-stale-noqa",
        action="store_true",
        help="disable R000 unused-suppression detection",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    ns = parser.parse_args(argv)

    if ns.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.summary}")
            print(f"      fix: {rule.hint}")
        return 0

    if ns.jobs < 1:
        print(f"--jobs must be >= 1, got {ns.jobs}", file=sys.stderr)
        return 2

    select: Optional[Set[str]] = None
    if ns.select:
        select = {c.strip().upper() for c in ns.select.split(",") if c.strip()}
        known = {rule.code for rule in ALL_RULES}
        unknown = select - known
        if unknown:
            print(
                f"unknown rule code(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}",
                file=sys.stderr,
            )
            return 2

    findings, errors = lint_paths(
        ns.paths,
        select=select,
        jobs=ns.jobs,
        stale_noqa=not ns.no_stale_noqa,
    )
    for err in errors:
        print(f"error: {err}", file=sys.stderr)

    if ns.update_baseline:
        save_baseline(ns.baseline, findings)
        print(
            f"baseline {ns.baseline} rewritten with {len(findings)} "
            f"finding{'s' if len(findings) != 1 else ''}",
            file=sys.stderr,
        )
        return 2 if errors else 0

    baseline = set() if ns.no_baseline else load_baseline(ns.baseline)
    new, grandfathered = split_baselined(findings, baseline)

    report = render_findings(new, ns.fmt)
    if ns.output:
        with open(ns.output, "w", encoding="utf-8") as fh:
            fh.write(report + ("\n" if report else ""))
    elif report:
        print(report)
    if ns.fmt == "sarif" and ns.output:
        # sanity-check our own artifact before CI uploads it
        from repro.analysis.output import validate_sarif

        problems = validate_sarif(json.loads(report))
        for p in problems:
            print(f"error: sarif: {p}", file=sys.stderr)
        if problems:
            return 2
    if new:
        n = len(new)
        print(f"\n{n} finding{'s' if n != 1 else ''}.", file=sys.stderr)
    if grandfathered:
        print(
            f"({len(grandfathered)} baselined finding"
            f"{'s' if len(grandfathered) != 1 else ''} suppressed; see "
            f"{ns.baseline})",
            file=sys.stderr,
        )
    if errors:
        return 2
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
