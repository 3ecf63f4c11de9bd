"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by this library derive from :class:`ReproError`
so callers can catch library failures with a single ``except`` clause
while still distinguishing the failure class when they need to.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "VertexError",
    "EdgeError",
    "WeightError",
    "EngineError",
    "UnknownEngineError",
    "OwnershipViolation",
    "WriteSetViolation",
    "AlgorithmError",
    "TreeInvariantError",
    "NotReachableError",
    "BatchError",
    "IOFormatError",
    "BenchmarkError",
]


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class GraphError(ReproError):
    """A graph-structure operation failed (bad topology or state)."""


class VertexError(GraphError):
    """A vertex id is out of range or otherwise invalid."""

    def __init__(self, vertex: int, n: int, context: str = "") -> None:
        msg = f"vertex {vertex} out of range [0, {n})"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)
        self.vertex = vertex
        self.n = n
        self.context = context

    def __reduce__(
        self,
    ) -> "tuple[type[VertexError], tuple[int, int, str]]":
        # rich __init__ signatures need explicit pickle support: the
        # process engine ships worker exceptions across processes
        return type(self), (self.vertex, self.n, self.context)


class EdgeError(GraphError):
    """An edge is missing, duplicated, or malformed."""


class WeightError(GraphError):
    """An edge weight (or weight vector) is invalid.

    All algorithms in this package require finite, non-negative edge
    weights; the number of objectives must be consistent across the
    whole graph.
    """


class EngineError(ReproError):
    """A parallel engine was misconfigured or misused."""


class UnknownEngineError(EngineError):
    """``resolve_engine`` was asked for a backend name not in its registry.

    Carries the rejected ``name`` and the ``valid`` registry names so
    callers (the CLI, config loaders) can render a helpful message
    without parsing the string.
    """

    def __init__(self, name: str, valid: "tuple[str, ...]") -> None:
        super().__init__(
            f"unknown engine {name!r}; expected one of {sorted(valid)}"
        )
        self.name = name
        self.valid = tuple(valid)

    def __reduce__(
        self,
    ) -> "tuple[type[UnknownEngineError], tuple[str, tuple[str, ...]]]":
        return type(self), (self.name, self.valid)


class OwnershipViolation(EngineError):
    """Two tasks wrote to the same vertex inside one superstep.

    Raised only when ownership checking is enabled (debug mode); the
    paper's grouping technique guarantees this never happens for
    correct usage of :func:`repro.core.sosp_update.sosp_update`.
    """

    def __init__(self, vertex: int, first_task: int, second_task: int) -> None:
        super().__init__(
            f"vertex {vertex} written by task {first_task} and task "
            f"{second_task} in the same superstep (race condition)"
        )
        self.vertex = vertex
        self.first_task = first_task
        self.second_task = second_task

    def __reduce__(
        self,
    ) -> "tuple[type[OwnershipViolation], tuple[int, int, int]]":
        return type(self), (self.vertex, self.first_task, self.second_task)


class WriteSetViolation(EngineError):
    """A slab superstep mutated arrays outside its declared write-set.

    ``SlabTask.writes`` is a contract: a dispatched superstep copies
    exactly the declared arrays back into the caller's, so an
    undeclared mutation is lost after a dispatch but kept when the
    superstep runs inline — a result that depends on the engine's
    dispatch decision.  :class:`repro.parallel.checked.CheckedEngine`
    raises this when either the static analyzer's inferred write-set
    for ``task.ref`` exceeds the declaration, or a before/after content
    digest shows an undeclared array changed during the superstep.
    """

    def __init__(self, ref: str, arrays: "tuple[str, ...]", how: str) -> None:
        super().__init__(
            f"slab kernel {ref!r} mutated undeclared array(s) "
            f"{', '.join(sorted(arrays))} ({how}); declare them in "
            "SlabTask(writes=...) so a dispatched superstep copies them back"
        )
        self.ref = ref
        self.arrays = tuple(arrays)
        self.how = how

    def __reduce__(
        self,
    ) -> "tuple[type[WriteSetViolation], tuple[str, tuple[str, ...], str]]":
        return type(self), (self.ref, self.arrays, self.how)


class AlgorithmError(ReproError):
    """An algorithm received inputs violating its preconditions."""


class TreeInvariantError(AlgorithmError):
    """An SOSP tree failed certification against its graph."""


class NotReachableError(AlgorithmError):
    """A requested destination is not reachable from the source."""

    def __init__(self, source: int, destination: int) -> None:
        super().__init__(
            f"vertex {destination} is not reachable from source {source}"
        )
        self.source = source
        self.destination = destination

    def __reduce__(
        self,
    ) -> "tuple[type[NotReachableError], tuple[int, int]]":
        return type(self), (self.source, self.destination)


class BatchError(ReproError):
    """A change batch is malformed (bad endpoints, weights, or flags)."""


class IOFormatError(ReproError):
    """A graph file could not be parsed."""


class BenchmarkError(ReproError):
    """A benchmark harness configuration is invalid."""
