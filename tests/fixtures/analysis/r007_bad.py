"""R007 fixture: unpicklable callables handed to process-backed engines.

Spawn workers re-import tasks by qualified name; every dispatch here
hands them something that has no importable name.
"""

from typing import Any, List

from repro.parallel.api import SlabTask, resolve_engine
from repro.parallel.backends.shm import SharedMemoryEngine


def dispatch_inline_lambda(items: List[int]) -> List[int]:
    eng = SharedMemoryEngine(threads=2)
    return eng.parallel_for(items, lambda x: x + 1)


def dispatch_closure(items: List[int]) -> List[int]:
    scale = 3

    def task(x: int) -> int:
        return x * scale

    eng = SharedMemoryEngine(threads=2)
    return eng.parallel_for(items, task)


def dispatch_lambda_binding(items: List[int]) -> List[int]:
    task = lambda x: x - 1  # noqa: E731 (fixture)
    with SharedMemoryEngine(threads=2) as eng:
        return eng.parallel_for(items, task)


def dispatch_resolved(items: List[int]) -> List[int]:
    eng = resolve_engine("shm", threads=2)
    return eng.parallel_for(items, lambda x: x)


class Driver:
    def step(self, x: int) -> int:
        return x

    def run(self, items: List[int]) -> List[int]:
        eng = SharedMemoryEngine(threads=2)
        return eng.parallel_for(items, self.step)  # bound method


def bad_refs(engine: Any) -> None:
    engine.parallel_for_slabs(4, SlabTask(
        ref="no-colon-here",  # not module:qualname
        arrays=("a",),
    ))
    engine.parallel_for_slabs(4, SlabTask(
        ref="r007_bad:missing_fn",  # no such function in this module
        arrays=("a",),
    ))
