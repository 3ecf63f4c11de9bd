"""Experiment runner: record one MOSP-update execution as a trace.

One call to :func:`record_mosp_trace` plays the full Algorithm-2
pipeline (per-objective tree updates → ensemble → Bellman-Ford →
reassign) for one ``(dataset, ΔE)`` configuration on a trace-recording
simulated engine.  The recorded trace is then replayed at any thread
count by :func:`repro.parallel.replay_trace` — this is how the 1→64
thread sweeps of Figures 4–5 come from a single execution each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.bench.datasets import DATASETS, load_dataset
from repro.core.mosp_update import mosp_update
from repro.core.tree import SOSPTree
from repro.dynamic.batch_gen import random_insert_batch
from repro.errors import BenchmarkError
from repro.obs.tracer import Tracer, use_tracer
from repro.parallel.backends.simulated import SimulatedEngine, replay_trace

__all__ = ["MOSPTrace", "record_mosp_trace"]


@dataclass
class MOSPTrace:
    """A recorded MOSP-update execution plus metadata.

    Attributes
    ----------
    dataset:
        Dataset name.
    batch_size:
        Scaled ΔE actually inserted.
    paper_batch_size:
        The paper ΔE this configuration mirrors (e.g. 100_000).
    trace:
        The replayable event list.
    step_traces:
        Pipeline-step name → its slice of the trace (for Figure 6
        breakdowns at any thread count).
    num_vertices, num_edges:
        Stand-in sizes after the batch.
    wall_seconds:
        Real time the recording took (informational) — the elapsed
        time of the root tracer span.
    step_wall_seconds:
        Wall seconds per pipeline step, read off the algorithm-phase
        spans (``MOSPResult.step_seconds``).
    spans:
        The full recorded span stream
        (:meth:`~repro.obs.tracer.Span.to_dict` rows) — exportable
        with any :mod:`repro.obs.export` sink.
    """

    dataset: str
    batch_size: int
    paper_batch_size: int
    trace: List[tuple]
    step_traces: Dict[str, List[tuple]]
    num_vertices: int
    num_edges: int
    wall_seconds: float
    step_wall_seconds: Dict[str, float] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)

    def time_at(self, threads: int) -> float:
        """Virtual seconds for the whole update at ``threads``."""
        return replay_trace(self.trace, threads)

    def time_ms(self, threads: int) -> float:
        """Virtual milliseconds at ``threads``."""
        return self.time_at(threads) * 1e3

    def step_times_at(self, threads: int) -> Dict[str, float]:
        """Virtual seconds per pipeline step at ``threads``."""
        return {
            step: replay_trace(tr, threads)
            for step, tr in self.step_traces.items()
        }


#: Session-wide default seed for benchmark batch generation; settable
#: once from the harness (``pytest benchmarks/ --bench-seed N``) so
#: every figure and table draws from the same reproducible stream.
_session_seed = 0


def set_bench_seed(seed: int) -> None:
    """Set the session default seed used when callers pass ``seed=None``."""
    global _session_seed
    _session_seed = int(seed)


def get_bench_seed() -> int:
    """The session default benchmark seed (0 unless overridden)."""
    return _session_seed


def record_mosp_trace(
    dataset: str,
    paper_batch_size: int,
    k: int = 2,
    seed: Optional[int] = None,
    source: int = 0,
    weighting: str = "balanced",
) -> MOSPTrace:
    """Execute one MOSP update on a trace-recording engine.

    The batch size is the paper ΔE scaled by the dataset's ΔE/|E|
    ratio (see :class:`~repro.bench.datasets.DatasetSpec`).  The graph
    is freshly built, the initial per-objective trees are computed
    from scratch (not timed — the paper also times only the update),
    the batch is applied, and the full :func:`mosp_update` pipeline
    runs under a recording :class:`SimulatedEngine`.

    ``seed=None`` (the default) resolves to the session seed set by
    :func:`set_bench_seed`.
    """
    if seed is None:
        seed = get_bench_seed()
    if dataset not in DATASETS:
        raise BenchmarkError(f"unknown dataset {dataset!r}")
    spec = DATASETS[dataset]
    g = load_dataset(dataset, k=k, fresh=True)
    batch_size = spec.scaled_batch_size(paper_batch_size, g.num_edges)
    trees = [SOSPTree.build(g, source, objective=i) for i in range(k)]
    batch = random_insert_batch(g, batch_size, seed=seed)
    batch.apply_to(g)

    eng = SimulatedEngine(threads=1, record_trace=True)
    # the whole pipeline runs under a recording tracer: wall times come
    # from the span stream (root span = whole update, algorithm-phase
    # spans = the Figure 6 steps), not hand-rolled clock reads
    tracer = Tracer(recording=True)
    with use_tracer(tracer):
        with tracer.span(
            "bench.record_mosp_trace", dataset=dataset,
            batch_size=batch_size,
        ) as root:
            result = mosp_update(
                g, trees, batch, engine=eng, weighting=weighting
            )

    # rebuild per-step trace slices from the engine's virtual timeline:
    # mosp_update charged steps strictly in order, so cutting the trace
    # at each step's cumulative virtual time reproduces the segments.
    step_traces = _segment_trace(eng.trace or [], result.step_virtual_seconds)

    return MOSPTrace(
        dataset=dataset,
        batch_size=batch_size,
        paper_batch_size=paper_batch_size,
        trace=list(eng.trace or []),
        step_traces=step_traces,
        num_vertices=g.num_vertices,
        num_edges=g.num_edges,
        wall_seconds=root.elapsed,
        step_wall_seconds=dict(result.step_seconds),
        spans=[s.to_dict() for s in tracer.drain()],
    )


def _segment_trace(
    trace: List[tuple], step_virtual_seconds: Dict[str, float]
) -> Dict[str, List[tuple]]:
    """Split a trace into per-step slices by cumulative virtual time.

    ``step_virtual_seconds`` preserves insertion order (the pipeline
    order), so consuming events until each step's recorded virtual
    duration is exhausted recovers the per-step sub-traces exactly —
    the engine's clock advances by the same amounts it did live.
    """
    out: Dict[str, List[tuple]] = {}
    idx = 0
    for step, duration in step_virtual_seconds.items():
        seg: List[tuple] = []
        acc = 0.0
        while idx < len(trace) and acc < duration - 1e-15:
            ev = trace[idx]
            seg.append(ev)
            acc += replay_trace([ev], 1)
            idx += 1
        out[step] = seg
    # anything left belongs to the final step (trailing charges)
    if idx < len(trace) and out:
        last = next(reversed(out))
        out[last].extend(trace[idx:])
    return out
