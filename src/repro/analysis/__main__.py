"""Command-line entry point: ``python -m repro.analysis src tests``.

Prints one ``path:line:col: CODE msg  [fix: ...]`` line per finding.
Exit status: 0 clean, 1 on any finding (warnings included), 2 on a
bad invocation or a missing, unreadable or unparseable file.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Set

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
        metavar="CODES",
        help="comma-separated rule codes to run (e.g. R001,R006)",
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

    findings, errors = lint_paths(ns.paths, select=select)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    for f in findings:
        print(f.format())
    if findings:
        n = len(findings)
        print(f"\n{n} finding{'s' if n != 1 else ''}.", file=sys.stderr)
    if errors:
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
