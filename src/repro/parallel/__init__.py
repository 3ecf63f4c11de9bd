"""Parallel runtime substrate: pluggable execution engines.

The paper's implementation is C++/OpenMP on a dual 32-core EPYC.  In
CPython the GIL (and, in this reproduction environment, a single CPU
core) rules out *measuring* real shared-memory speedups, so the
algorithms in :mod:`repro.core` are written against an engine
abstraction with three interchangeable backends:

========================  =====================================================
:class:`SerialEngine`     plain loop; the baseline and the reference semantics
:class:`SharedMemoryEngine`  persistent ``spawn`` pool over
                          ``multiprocessing.shared_memory``-planted arrays;
                          supersteps dispatch :class:`~repro.parallel.api.SlabTask`
                          references and ``(lo, hi)`` slab indices only — the
                          GIL-free backend that actually runs the vectorised
                          CSR kernels multicore (see ``docs/PARALLEL.md``);
                          generic closures travel pickled, with a loud serial
                          fallback when they cannot
:class:`SimulatedEngine`  a deterministic work-span machine model: the same
                          task graph is executed once, each task is charged
                          its reported work, and tasks are scheduled over
                          ``T`` virtual threads with dynamic chunking; the
                          makespan (plus barrier/scheduling overheads) is the
                          *virtual* wall time.  Thread-count sweeps over this
                          engine regenerate the paper's scalability figures
                          deterministically.
========================  =====================================================

All engines implement the :class:`~repro.parallel.api.Engine` protocol:
``parallel_for`` (one superstep: independent tasks + implicit barrier)
and ``charge`` (account serial work to the virtual clock; a no-op
outside the simulated engine).
"""

from repro.parallel.api import (
    Engine,
    SlabTask,
    engine_observability,
    parallel_for_slabs,
    resolve_engine,
    slab_spans,
)
from repro.parallel.atomics import OwnershipTracker
from repro.parallel.backends.shm import SharedMemoryEngine
from repro.parallel.checked import CheckedEngine
from repro.parallel.backends.serial import SerialEngine
from repro.parallel.backends.simulated import (
    SimulatedEngine,
    dynamic_makespan,
    replay_trace,
)
from repro.parallel.cost import WorkMeter

__all__ = [
    "Engine",
    "engine_observability",
    "resolve_engine",
    "slab_spans",
    "parallel_for_slabs",
    "SerialEngine",
    "SharedMemoryEngine",
    "SlabTask",
    "SimulatedEngine",
    "dynamic_makespan",
    "replay_trace",
    "WorkMeter",
    "OwnershipTracker",
    "CheckedEngine",
]
