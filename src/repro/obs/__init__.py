"""Observability: superstep tracing, metrics, and exporters.

Zero-dependency subsystem answering the paper's evaluation question —
*where does the time go?* — for every run, not just the bench harness:

- :mod:`repro.obs.tracer` — nested spans (algorithm phase → superstep
  → worker task) with a passive default and a zero-cost
  ``REPRO_OBS=off`` mode;
- :mod:`repro.obs.engine` — :class:`TracedEngine`, one annotated span
  per ``parallel_for`` superstep on any backend (applied automatically
  by :func:`repro.parallel.api.resolve_engine` while a recording
  tracer is active);
- :mod:`repro.obs.metrics` — counters/gauges/histograms published once
  per kernel call from the existing stats objects;
- :mod:`repro.obs.export` — JSONL, Chrome trace-event JSON
  (Perfetto-loadable), and Prometheus text exporters, wired into the
  CLI via ``--trace``/``--metrics``;
- :mod:`repro.obs.collect` — cross-process collection: pool workers
  record spans/metric deltas into preallocated buffers and ship them
  back piggybacked on the engines' tagged replies, clock-aligned and
  re-parented under the dispatching superstep span at merge;
- :mod:`repro.obs.report` — ``python -m repro.obs report``, rolling a
  merged trace up into the paper's phase taxonomy (Step 1/2/3,
  front, dispatch overhead, worker idle/skew).

See ``docs/OBSERVABILITY.md`` for the span/metric ↔ paper phase map.
"""

from repro.obs.clock import SOURCE as CLOCK_SOURCE
from repro.obs.collect import (
    WorkerCapture,
    WorkerReport,
    estimate_offset,
    merge_report,
    merge_reports,
    obs_header,
)
from repro.obs.engine import TracedEngine
from repro.obs.export import (
    EXPORTERS,
    export_chrome_trace,
    export_jsonl,
    export_prometheus,
    parse_prometheus,
    read_jsonl,
    validate_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
    use_metrics,
)
from repro.obs.report import attribute_trace, load_trace, render_text
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_span,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "CLOCK_SOURCE",
    "TracedEngine",
    "WorkerCapture",
    "WorkerReport",
    "estimate_offset",
    "merge_report",
    "merge_reports",
    "obs_header",
    "attribute_trace",
    "load_trace",
    "render_text",
    "EXPORTERS",
    "export_chrome_trace",
    "export_jsonl",
    "export_prometheus",
    "parse_prometheus",
    "read_jsonl",
    "validate_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "use_metrics",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "current_span",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]
