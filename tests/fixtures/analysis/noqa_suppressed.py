"""Noqa fixture: every violation here carries a suppression comment,
so the whole file must lint clean under every rule."""

import time
from typing import Any, Callable, List, Mapping, Optional

from repro.parallel.api import SlabTask
from repro.parallel.backends.shm import SharedMemoryEngine


def blanket(engine: Any, items: List[int], hits: List[int]) -> List[int]:
    def task(i):  # nested: exempt from R004
        hits[i] = 1  # repro: noqa
        return i

    return engine.parallel_for(items, task)


def targeted(fn: Callable[[], int]) -> Optional[int]:
    try:
        return fn()
    except:  # repro: noqa(R003)
        return None


def multi_code() -> float:
    return time.time()  # repro: noqa(R003, R005)


def undeclared_kernel(
    arrays: Mapping[str, Any], params: Mapping[str, Any], lo: int, hi: int,
) -> int:
    arrays["aux"][lo:hi] = 1
    return hi - lo


def dispatch_slab(engine: Any) -> None:
    engine.parallel_for_slabs(4, SlabTask(  # repro: noqa(R006)
        ref="noqa_suppressed:undeclared_kernel",
        arrays=("aux",),
        writes=(),
    ))


def dispatch_lambda(items: List[int]) -> List[int]:
    eng = SharedMemoryEngine(threads=2)
    return eng.parallel_for(items, lambda x: x)  # repro: noqa(R007)
