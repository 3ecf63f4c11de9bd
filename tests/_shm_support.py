"""Picklable task functions for the process/shared-memory engine tests.

Spawn workers re-import task functions by module path, so anything a
worker must resolve lives here (a stable, importable module) rather
than inside a test function body.  ``SlabTask`` refs used by the tests
point at this module, e.g. ``"tests._shm_support:double_slab"``.
"""

from __future__ import annotations

import os
from typing import Any, Mapping, Tuple

import numpy as np


def square(x: int) -> int:
    return x * x


def add_one(x: int) -> int:
    return x + 1


def double_slab(
    arrays: Mapping[str, np.ndarray], params: Mapping[str, Any],
    lo: int, hi: int,
) -> float:
    """Double ``out[lo:hi]`` in place; return the span sum."""
    out = arrays["out"]
    out[lo:hi] *= 2
    return float(out[lo:hi].sum())


def pid_slab(
    arrays: Mapping[str, np.ndarray], params: Mapping[str, Any],
    lo: int, hi: int,
) -> Tuple[int, int, int]:
    """Stamp the executing pid over ``out[lo:hi]``; report it."""
    out = arrays["out"]
    out[lo:hi] = os.getpid()
    return lo, hi, os.getpid()


def crash_if_worker_slab(
    arrays: Mapping[str, np.ndarray], params: Mapping[str, Any],
    lo: int, hi: int,
) -> int:
    """Kill the executing process — but only when it is a pool worker.

    The pid guard keeps the documented crash-recovery path (inline
    re-run on the master) from killing the test runner itself.
    """
    if os.getpid() != int(params["master_pid"]):
        os._exit(3)
    out = arrays["out"]
    out[lo:hi] = 1
    return hi - lo


def crash_after_write_slab(
    arrays: Mapping[str, np.ndarray], params: Mapping[str, Any],
    lo: int, hi: int,
) -> int:
    """Relaxation-style kernel that dies AFTER mutating its slab.

    Counts the zero entries of its span (the "improvements"), writes
    them to 1, then kills the process — but only in a pool worker (pid
    guard as in :func:`crash_if_worker_slab`).  A recovery re-run that
    saw the already-written 1s would report 0 improvements for those
    spans and under-count — exactly how a lost `affected` vertex
    manifests in the real kernels.
    """
    out = arrays["out"]
    improved = int((out[lo:hi] == 0).sum())
    out[lo:hi] = 1
    if os.getpid() != int(params["master_pid"]):
        os._exit(3)
    return improved


def crash_then_propagate_slab(
    arrays: Mapping[str, np.ndarray], params: Mapping[str, Any],
    lo: int, hi: int,
) -> Tuple[np.ndarray, int]:
    """Step-2 kernel stand-in that dies in pool workers, mid-write.

    Poisons the planted ``sosp.dist`` copy and kills the process when
    running inside a spawn worker (``multiprocessing.parent_process()``
    is set there and ``None`` in the test runner), so the shared-memory
    engine's crash recovery must re-run the superstep on the caller's
    still-pristine arrays.  The recovery re-run resolves this same ref
    inline on the master, where it delegates to the real
    :func:`repro.core.kernels._propagate_relax_slab` — the
    mixed-pipeline crash test monkeypatches
    ``repro.core.kernels._PROPAGATE_SLAB_REF`` to point here.
    """
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        arrays["sosp.dist"][lo:hi] = -1.0
        os._exit(3)
    from repro.core.kernels import _propagate_relax_slab

    return _propagate_relax_slab(arrays, params, lo, hi)


def sneaky_slab(
    arrays: Mapping[str, np.ndarray], params: Mapping[str, Any],
    lo: int, hi: int,
) -> int:
    """Writes ``out`` as declared but also mutates ``aux`` — a kernel
    whose ``writes=("out",)`` declaration lies.  The write is a plain
    subscript store, so the static analyzer's inferred write-set
    catches it (CheckedEngine raises before dispatch)."""
    arrays["out"][lo:hi] += 1
    arrays["aux"][lo:hi] = 7
    return hi - lo


def dynamic_write_slab(
    arrays: Mapping[str, np.ndarray], params: Mapping[str, Any],
    lo: int, hi: int,
) -> int:
    """Mutates the array named by ``params["victim"]`` — a dynamic
    catalog key static inference cannot resolve (the inferred write-set
    comes back incomplete), so only CheckedEngine's before/after
    content digest can catch the undeclared write."""
    arrays[params["victim"]][lo:hi] = 9
    return hi - lo


def _raise_on_load() -> None:
    raise RuntimeError("this callable refuses to unpickle")


class MainOnlyFn:
    """Callable that pickles on the master but cannot unpickle in a
    worker — the ``fn defined in __main__ under spawn`` failure mode
    that used to poison the pool."""

    def __call__(self, x: int) -> int:
        return x + 1

    def __reduce__(self):
        return (_raise_on_load, ())


def spam_spans_slab(
    arrays: Mapping[str, np.ndarray], params: Mapping[str, Any],
    lo: int, hi: int,
) -> float:
    """Emit ``params["spans"]`` tracer spans — far more than the
    worker's preallocated :class:`~repro.obs.collect.SpanBuffer` holds
    — so the buffer-overflow drop accounting runs through the real
    dispatch path (capture, tagged reply, merge)."""
    from repro.obs.tracer import get_tracer

    tracer = get_tracer()
    for i in range(int(params.get("spans", 600))):
        with tracer.span("spam", i=i):
            pass
    out = arrays["out"]
    out[lo:hi] += 1
    return float(hi - lo)
