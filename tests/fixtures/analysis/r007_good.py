"""R007 fixture: spawn-safe dispatch — module-level tasks, valid refs."""

from typing import Any, List

from repro.parallel.api import SlabTask
from repro.parallel.backends.shm import SharedMemoryEngine
from repro.parallel.backends.serial import SerialEngine


def double(x: int) -> int:
    return x * 2


def dispatch_module_level(items: List[int]) -> List[int]:
    eng = SharedMemoryEngine(threads=2)
    return eng.parallel_for(items, double)


def closures_fine_in_process(items: List[int]) -> List[int]:
    results: List[int] = []

    def task(x: int) -> int:
        return x + len(results)

    eng = SerialEngine()  # in-process: closures pickle-free
    return eng.parallel_for(items, task)


def good_ref(engine: Any) -> None:
    engine.parallel_for_slabs(4, SlabTask(
        ref="r007_good:double",
        arrays=("a",),
    ))
