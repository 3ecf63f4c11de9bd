"""Counters, gauges, and histograms for the update algorithms.

The registry is the single emission point for algorithm statistics:
kernels accumulate into their per-call stats objects exactly as before
and *publish* them here once, at the end of the call, so the inner
loops pay nothing and a metric can never be double-counted (the
``UpdateStats`` duplication risk the per-tree emission helper in
:mod:`repro.core.mosp_update` retires).

The default process-wide registry is **disabled**: every mutation is an
early-returning no-op, so library users who never look at metrics pay
one attribute check per publish site.  The CLI (``--metrics``), the
bench runner, and tests install an enabled registry with
:func:`use_metrics`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.errors import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "labeled_name",
    "set_metrics",
    "use_metrics",
]

#: Raw histogram samples shipped per metric in a cross-process delta.
_MAX_SHIPPED_SAMPLES = 256


def labeled_name(
    name: str, labels: Optional[Mapping[str, str]] = None
) -> str:
    """Append ``labels`` to ``name`` in Prometheus label syntax.

    Labels are sorted by key so the same label set always produces the
    same series name; an empty/absent mapping returns ``name``
    unchanged.
    """
    if not labels:
        return name
    body = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{body}}}"


class Counter:
    """Monotonically increasing total.

    ``inc`` is locked: the service's submitting threads and its ingest
    thread mutate counters concurrently, and a lost ``+=`` would
    silently under-count drop/total series.  Publication
    is batched (once per call, never per inner-loop item), so the lock
    is off every hot path.
    """

    __slots__ = ("name", "help", "value", "_enabled", "_lock")

    def __init__(self, name: str, help: str = "", enabled: bool = True) -> None:
        self.name = name
        self.help = help
        self.value: float = 0.0
        self._enabled = enabled
        self._lock = threading.Lock()

    def inc(self, n: float = 1.0) -> None:
        if not self._enabled:
            return
        if n < 0:
            raise ReproError(f"counter {self.name}: negative increment {n}")
        with self._lock:
            self.value += n


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "help", "value", "_enabled")

    def __init__(self, name: str, help: str = "", enabled: bool = True) -> None:
        self.name = name
        self.help = help
        self.value: float = 0.0
        self._enabled = enabled

    def set(self, v: float) -> None:
        if self._enabled:
            self.value = float(v)


class Histogram:
    """Raw-sample histogram summarised as count/sum/min/max/p50/p95."""

    __slots__ = ("name", "help", "values", "_enabled", "_lock")

    def __init__(self, name: str, help: str = "", enabled: bool = True) -> None:
        self.name = name
        self.help = help
        self.values: List[float] = []
        self._enabled = enabled
        self._lock = threading.Lock()

    def observe(self, v: float) -> None:
        if self._enabled:
            with self._lock:
                self.values.append(float(v))

    def summary(self) -> Dict[str, float]:
        """The summary statistics of everything observed so far."""
        if not self.values:
            return {"count": 0.0, "sum": 0.0}
        s = sorted(self.values)
        return {
            "count": float(len(s)),
            "sum": float(sum(s)),
            "min": s[0],
            "max": s[-1],
            "p50": percentile(s, 0.50),
            "p95": percentile(s, 0.95),
        }


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    if not sorted_values:
        raise ReproError("percentile of an empty sample")
    idx = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[int(idx)]


_Metric = Union[Counter, Gauge, Histogram]
_PROM_TYPES = {Counter: "counter", Gauge: "gauge", Histogram: "summary"}


class MetricsRegistry:
    """Kind-checked name → metric store.

    ``counter``/``gauge``/``histogram`` create on first use and return
    the cached instance afterwards; asking for an existing name with a
    different kind raises (silent kind confusion would corrupt
    exports).  A disabled registry hands out no-op metrics so call
    sites never branch.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get(self, kind: type, name: str, help: str) -> _Metric:
        with self._lock:
            m = self._metrics.get(name)
            if m is None:
                m = kind(name, help, enabled=self.enabled)
                self._metrics[name] = m
            elif type(m) is not kind:
                raise ReproError(
                    f"metric {name!r} already registered as "
                    f"{type(m).__name__}, requested {kind.__name__}"
                )
            return m

    def counter(self, name: str, help: str = "") -> Counter:
        m = self._get(Counter, name, help)
        assert isinstance(m, Counter)
        return m

    def gauge(self, name: str, help: str = "") -> Gauge:
        m = self._get(Gauge, name, help)
        assert isinstance(m, Gauge)
        return m

    def histogram(self, name: str, help: str = "") -> Histogram:
        m = self._get(Histogram, name, help)
        assert isinstance(m, Histogram)
        return m

    def snapshot(self) -> Dict[str, Any]:
        """Name → value (counters/gauges) or summary dict (histograms)."""
        out: Dict[str, Any] = {}
        with self._lock:
            items: List[Tuple[str, _Metric]] = sorted(self._metrics.items())
        for name, m in items:
            out[name] = m.summary() if isinstance(m, Histogram) else m.value
        return out

    def reset(self) -> None:
        """Drop every registered metric (tests and long sessions)."""
        with self._lock:
            self._metrics.clear()

    def deltas(self) -> Dict[str, Tuple[str, Any]]:
        """Kind-tagged picklable dump: ``name -> (kind, payload)``.

        The cross-process collector ships a *fresh* worker-side
        registry back to the master this way, so every payload is by
        construction a delta: counters/gauges carry their value,
        histograms their raw samples (capped at
        :data:`_MAX_SHIPPED_SAMPLES` — worker chunks observe a handful
        of samples, and an unbounded list would grow the reply).
        """
        out: Dict[str, Tuple[str, Any]] = {}
        with self._lock:
            items: List[Tuple[str, _Metric]] = sorted(self._metrics.items())
        for name, m in items:
            if isinstance(m, Counter):
                out[name] = ("counter", m.value)
            elif isinstance(m, Gauge):
                out[name] = ("gauge", m.value)
            else:
                out[name] = ("histogram", list(m.values[:_MAX_SHIPPED_SAMPLES]))
        return out

    def merge_deltas(
        self,
        deltas: Mapping[str, Tuple[str, Any]],
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Fold a :meth:`deltas` dump into this registry.

        ``labels`` (e.g. ``{"worker": "4711"}``) are appended to each
        metric name in Prometheus label syntax, so per-worker series
        stay separable in exports while the unlabelled master series
        remain untouched.  No-op when disabled.
        """
        if not self.enabled:
            return
        for name, (kind, payload) in sorted(deltas.items()):
            labeled = labeled_name(name, labels)
            if kind == "counter":
                self.counter(labeled).inc(float(payload))
            elif kind == "gauge":
                self.gauge(labeled).set(float(payload))
            elif kind == "histogram":
                hist = self.histogram(labeled)
                for v in payload:
                    hist.observe(float(v))
            else:
                raise ReproError(
                    f"metric delta {name!r} has unknown kind {kind!r}"
                )

    def to_prometheus(self) -> str:
        """Prometheus text exposition (histograms as summaries).

        A labelled series (``name{worker="7"}``, see
        :func:`labeled_name`) belongs to the *family* ``name``: each
        family gets one ``# HELP`` and one ``# TYPE`` line, followed by
        all of its series.
        """
        with self._lock:
            items = sorted(self._metrics.items())
        families: Dict[str, List[Tuple[str, _Metric]]] = {}
        for name, m in items:
            families.setdefault(name.partition("{")[0], []).append((name, m))
        lines: List[str] = []
        for family, series in sorted(families.items()):
            help_text = next((m.help for _, m in series if m.help), "")
            if help_text:
                lines.append(f"# HELP {family} {help_text}")
            lines.append(f"# TYPE {family} {_PROM_TYPES[type(series[0][1])]}")
            for name, m in series:
                if not isinstance(m, Histogram):
                    lines.append(f"{name} {_fmt(m.value)}")
                    continue
                labels = name[len(family):]  # "" or '{k="v",...}'
                s = m.summary()
                for q, quantile in (("p50", "0.50"), ("p95", "0.95")):
                    if q in s:
                        body = ",".join(
                            p for p in (labels[1:-1], f'quantile="{quantile}"')
                            if p
                        )
                        lines.append(f"{family}{{{body}}} {_fmt(s[q])}")
                lines.append(f"{family}_sum{labels} {_fmt(s['sum'])}")
                lines.append(f"{family}_count{labels} {_fmt(s['count'])}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)


def _fmt(v: float) -> str:
    return repr(int(v)) if float(v).is_integer() else repr(float(v))


_METRICS: MetricsRegistry = MetricsRegistry(enabled=False)
_METRICS_LOCK = threading.Lock()


def get_metrics() -> MetricsRegistry:
    """The process-wide active registry (disabled by default)."""
    return _METRICS


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry``; returns the previous one."""
    global _METRICS
    with _METRICS_LOCK:
        prev = _METRICS
        _METRICS = registry
    return prev


@contextmanager
def use_metrics(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Scoped :func:`set_metrics`; installs a fresh enabled registry
    when none is given."""
    reg = registry if registry is not None else MetricsRegistry(enabled=True)
    prev = set_metrics(reg)
    try:
        yield reg
    finally:
        set_metrics(prev)
