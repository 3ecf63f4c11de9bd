"""The sanctioned clock: the only place algorithm-adjacent code reads time.

Rule R005 confines wall-clock reads to ``repro/bench/`` (measured
experiment timestamps) and this package (span timing).  Everything in
``repro/core`` and friends that needs a duration opens a
:class:`~repro.obs.tracer.Tracer` span instead of calling
``time.perf_counter`` directly, so *modeled* time (the simulated
engine's virtual clock) and *profiled* time (spans) cannot be confused
and the clock source is swappable in exactly one place.
"""

from __future__ import annotations

import time

__all__ = ["perf", "SOURCE"]

#: Human-readable name of the span clock (``repro info`` reports it).
SOURCE = "time.perf_counter"


def perf() -> float:
    """Monotonic high-resolution seconds; the span clock."""
    return time.perf_counter()
