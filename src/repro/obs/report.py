"""Phase attribution over a merged trace: where did the wall time go?

The paper's evaluation (Figs. 4-6) is a time-attribution story — which
step, which superstep, which worker — and a merged cross-process trace
(:mod:`repro.obs.collect`) contains everything needed to retell it.
This module rolls a span stream up into the paper's phase taxonomy:

==========  ==========================================================
bucket      spans
==========  ==========================================================
driver      ``cli.*`` / ``bench.*`` roots (argument parsing, printing)
setup       ``setup.*`` (graph/tree construction, batch generation)
step1       per-tree SOSP updates: ``*.step1``, ``*.invalidate``,
            the per-objective ``*.sosp_update_<i>`` wrappers
step2       propagation / combine: ``*.step2``, ``*.ensemble``
step3       combined-graph solve: ``*.bellman_ford``, ``*.reassign``
front       ``dynamic_front.*`` (label-correcting Pareto front)
dispatch    engine-superstep time not covered by worker execution —
            payload pickling, pool round trips, reply decode
teardown    ``teardown.*`` (engine close, exports)
other       anything unrecognised (kept visible, counted against
            coverage)
==========  ==========================================================

Attribution is by **self time**: each master span contributes its
elapsed time minus the *interval union* of its master children's, so
nested phases never double-count — even when children run concurrently
on different threads.  Sibling spans on different threads still overlap
each other in wall time, so on a multithreaded master the per-phase
sums are *lane time* (like ``user`` vs ``real`` in ``time(1)``) and
may exceed ``wall_seconds``; ``coverage`` is therefore defined as the
share of wall time **not** lost to the ``other`` bucket, which stays
in ``[0, 1]``.  Engine ``superstep`` spans inherit their kernel phase
from the ``phase`` attribute :class:`~repro.obs.engine.TracedEngine`
stamps; when a superstep has merged worker spans, the worker execution
window stays in the kernel phase and only the uncovered remainder
counts as ``dispatch``.  Worker spans themselves (rows carrying a
``worker`` attribute) are never added on top — they run *inside* the
superstep window on other CPUs — but they do drive the per-worker
busy/idle/skew summary.

``python -m repro.obs report trace.jsonl`` renders the roll-up as text
or JSON; ``--min-coverage`` turns the "≥ N% of wall time attributed to
named phases" acceptance bar into an exit code.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import ReproError
from repro.obs.export import read_jsonl
from repro.obs.tracer import Span

__all__ = ["PHASES", "load_trace", "attribute_trace", "render_text"]

#: Report buckets, in render order.
PHASES = (
    "driver", "setup", "step1", "step2", "step3",
    "front", "dispatch", "teardown", "other",
)

_SpanLike = Union[Span, Dict[str, Any]]


def load_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read span rows from a ``.jsonl`` span log or a Chrome trace file.

    Both are produced by :mod:`repro.obs.export`; Chrome events are
    mapped back to span rows (µs → seconds, ``args`` → ``attrs`` with
    ``span_id``/``parent_id`` lifted out), so the report runs on
    whichever artifact a pipeline kept.
    """
    p = Path(path)
    if p.suffix == ".jsonl":
        return read_jsonl(p)
    with open(p, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError:
            # a .json span log written via export_jsonl despite the name
            return read_jsonl(p)
    if not isinstance(doc, dict) or not isinstance(
        doc.get("traceEvents"), list
    ):
        raise ReproError(f"{p}: neither a span log nor a Chrome trace")
    rows: List[Dict[str, Any]] = []
    for ev in doc["traceEvents"]:
        if not isinstance(ev, dict) or ev.get("ph") != "X":
            continue
        args = dict(ev.get("args") or {})
        span_id = args.pop("span_id", None)
        parent_id = args.pop("parent_id", None)
        start = float(ev.get("ts", 0.0)) / 1e6
        end = start + float(ev.get("dur", 0.0)) / 1e6
        rows.append(
            {
                "name": str(ev.get("name", "")),
                "span_id": span_id,
                "parent_id": parent_id,
                "start": start,
                "end": end,
                "elapsed": end - start,
                "thread": ev.get("tid", 0),
                "attrs": args,
            }
        )
    return rows


def _classify(name: str) -> Optional[str]:
    """Phase bucket for a span name, or ``None`` to inherit the parent's."""
    if name.startswith(("cli.", "bench.")):
        return "driver"
    if name.startswith("setup."):
        return "setup"
    if name.startswith("teardown"):
        return "teardown"
    if name.startswith("dynamic_front"):
        return "front"
    last = name.rsplit(".", 1)[-1]
    if last in ("step1", "invalidate") or last.startswith("sosp_update"):
        return "step1"
    if last in ("step2", "ensemble"):
        return "step2"
    if last in ("bellman_ford", "reassign"):
        return "step3"
    return None


def attribute_trace(rows: Sequence[_SpanLike]) -> Dict[str, Any]:
    """Roll a span stream up into the phase taxonomy (see module doc).

    Returns a JSON-ready dict: ``wall_seconds``, per-phase
    ``phases``/``fractions``, ``coverage`` (named-phase share of wall),
    span counts, and a ``workers`` busy/idle/skew summary.
    """
    spans = [
        r.to_dict() if isinstance(r, Span) else dict(r)
        for r in rows
    ]
    spans = [s for s in spans if s.get("end") is not None]
    master = [s for s in spans if "worker" not in (s.get("attrs") or {})]
    workers = [s for s in spans if "worker" in (s.get("attrs") or {})]
    phases: Dict[str, float] = {p: 0.0 for p in PHASES}
    if not master:
        return {
            "wall_seconds": 0.0,
            "phases": phases,
            "fractions": {p: 0.0 for p in PHASES},
            "coverage": 0.0,
            "spans": 0,
            "worker_spans": len(workers),
            "workers": {"count": 0, "busy_seconds": 0.0,
                        "idle_seconds": 0.0, "max_skew_seconds": 0.0},
        }
    wall = max(float(s["end"]) for s in master) - min(
        float(s["start"]) for s in master
    )
    by_id = {s["span_id"]: s for s in master if s.get("span_id") is not None}
    child_ivals: Dict[Any, List[List[float]]] = {}
    for s in master:
        pid = s.get("parent_id")
        if pid in by_id:
            p = by_id[pid]
            lo = max(float(s["start"]), float(p["start"]))
            hi = min(float(s["end"]), float(p["end"]))
            if hi > lo:
                child_ivals.setdefault(pid, []).append([lo, hi])
    # merged-interval child coverage per parent: concurrent children on
    # different threads overlap, so a plain elapsed sum would over-subtract
    child_sum: Dict[Any, float] = {}
    for pid, ivals in child_ivals.items():
        ivals.sort()
        covered = 0.0
        cur_lo, cur_hi = ivals[0]
        for lo, hi in ivals[1:]:
            if lo > cur_hi:
                covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        covered += cur_hi - cur_lo
        child_sum[pid] = covered
    worker_by_anchor: Dict[Any, List[Dict[str, Any]]] = {}
    for w in workers:
        worker_by_anchor.setdefault(w.get("parent_id"), []).append(w)

    def bucket_of(s: Dict[str, Any]) -> str:
        """Resolve the bucket, inheriting up the parent chain.

        Inheritance stops at ``driver``: an anonymous helper inside a
        kernel phase belongs to that phase, but an unrecognised span
        sitting directly under the driver root is *unexplained* time
        and must land in ``other``, not be absorbed silently.
        """
        seen = 0
        cur: Optional[Dict[str, Any]] = s
        while cur is not None and seen < 64:  # cycle guard
            name = str(cur.get("name", ""))
            if name == "superstep":
                phase_attr = str((cur.get("attrs") or {}).get("phase", ""))
                b = _classify(phase_attr) if phase_attr else None
            else:
                b = _classify(name)
            if b is not None:
                if b == "driver" and cur is not s:
                    return "other"
                return b
            cur = by_id.get(cur.get("parent_id"))
            seen += 1
        return "other"

    busy_by_pid: Dict[str, float] = {}
    idle_total = 0.0
    max_skew = 0.0
    for s in master:
        self_time = max(
            0.0, float(s["elapsed"]) - child_sum.get(s.get("span_id"), 0.0)
        )
        bucket = bucket_of(s)
        merged = worker_by_anchor.get(s.get("span_id"))
        if merged:
            # worker execution window stays in the kernel phase; only
            # the uncovered remainder of the superstep is dispatch cost
            window = max(float(w["end"]) for w in merged) - min(
                float(w["start"]) for w in merged
            )
            window = min(window, self_time)
            phases[bucket] += window
            phases["dispatch"] += self_time - window
            per_pid: Dict[str, float] = {}
            for w in merged:
                pid = str((w.get("attrs") or {}).get("worker"))
                per_pid[pid] = per_pid.get(pid, 0.0) + float(w["elapsed"])
                busy_by_pid[pid] = busy_by_pid.get(pid, 0.0) + float(
                    w["elapsed"]
                )
            threads = (s.get("attrs") or {}).get("threads", len(per_pid))
            try:
                lanes = max(int(threads), len(per_pid))
            except (TypeError, ValueError):
                lanes = len(per_pid)
            idle_total += max(0.0, lanes * window - sum(per_pid.values()))
            if per_pid:
                max_skew = max(
                    max_skew, max(per_pid.values()) - min(per_pid.values())
                )
        else:
            phases[bucket] += self_time
    # named-phase sums are lane time and may exceed wall on a
    # multithreaded master; unexplained time only ever lands in
    # "other", so coverage is wall's un-"other" share, in [0, 1]
    coverage = (
        max(0.0, min(1.0, 1.0 - phases["other"] / wall))
        if wall > 0 else 0.0
    )
    return {
        "wall_seconds": wall,
        "phases": phases,
        "fractions": {
            p: (v / wall if wall > 0 else 0.0) for p, v in phases.items()
        },
        "coverage": coverage,
        "spans": len(master),
        "worker_spans": len(workers),
        "workers": {
            "count": len(busy_by_pid),
            "busy_seconds": sum(busy_by_pid.values()),
            "idle_seconds": idle_total,
            "max_skew_seconds": max_skew,
        },
    }


def render_text(report: Dict[str, Any], source: str = "") -> str:
    """Human-readable rendering of :func:`attribute_trace`'s dict."""
    wall = float(report["wall_seconds"])
    lines: List[str] = []
    if source:
        lines.append(f"trace: {source}")
    lines.append(
        f"wall: {wall * 1e3:.2f} ms over {report['spans']} spans "
        f"({report['worker_spans']} worker spans from "
        f"{report['workers']['count']} workers)"
    )
    lines.append("phase attribution:")
    for p in PHASES:
        v = float(report["phases"][p])
        if v <= 0.0:
            continue
        frac = float(report["fractions"][p])
        lines.append(f"  {p:<10} {v * 1e3:>10.2f} ms  {frac * 100:5.1f}%")
    lines.append(
        f"coverage: {float(report['coverage']) * 100:.1f}% of wall time "
        f"attributed to named phases"
    )
    w = report["workers"]
    if w["count"]:
        lines.append(
            f"workers: busy {float(w['busy_seconds']) * 1e3:.2f} ms, "
            f"est. idle {float(w['idle_seconds']) * 1e3:.2f} ms, "
            f"max skew {float(w['max_skew_seconds']) * 1e3:.2f} ms"
        )
    return "\n".join(lines)
