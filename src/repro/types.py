"""Shared type aliases and small value objects.

The whole package identifies vertices by dense integer ids in
``[0, n)``.  Distances are ``float64``; a weight *vector* has one
component per objective.  ``INF`` marks unreachable vertices and
``NO_PARENT`` marks tree roots / unreachable vertices in parent arrays.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Vertex",
    "EdgeTuple",
    "WeightVector",
    "WeightLike",
    "SeedLike",
    "FloatArray",
    "IntArray",
    "BoolArray",
    "INF",
    "NO_PARENT",
    "DIST_DTYPE",
    "VERTEX_DTYPE",
    "KIND_DELETE",
    "KIND_INSERT",
    "KIND_WEIGHT",
    "as_float_array",
    "as_vertex_array",
]

#: A vertex id (dense, ``0 <= v < n``).
Vertex = int

#: ``(u, v)`` or ``(u, v, weight)`` edge description.
EdgeTuple = Union[Tuple[int, int], Tuple[int, int, float]]

#: Per-objective weight vector of an edge.
WeightVector = Sequence[float]

#: Anything accepted where an edge weight is expected: a scalar (when
#: ``k == 1``), a per-objective sequence, or an ndarray row.
WeightLike = Union[float, int, Sequence[float], np.ndarray]

#: Anything accepted as a seed by the graph generators: an integer
#: seed, ``None`` (fresh entropy), or an existing explicit Generator
#: (the form R002 requires inside the library itself).
SeedLike = Union[int, None, np.random.Generator]

FloatArray = np.ndarray
IntArray = np.ndarray
BoolArray = np.ndarray

#: Distance value for unreachable vertices.
INF: float = float("inf")

#: Parent sentinel for roots and unreachable vertices.
NO_PARENT: int = -1

#: dtype used for all distance arrays.
DIST_DTYPE = np.float64

#: dtype used for all vertex-id arrays.
VERTEX_DTYPE = np.int64

#: Record-kind codes of a change batch (``ChangeBatch.kind``).  They
#: live here, below both graph representations, so each graph's batch
#: applier can read them without importing :mod:`repro.dynamic`.
KIND_DELETE = 0
KIND_INSERT = 1
KIND_WEIGHT = 2


def as_float_array(values: Iterable[float]) -> FloatArray:
    """Return ``values`` as a contiguous ``float64`` numpy array."""
    return np.ascontiguousarray(values, dtype=DIST_DTYPE)


def as_vertex_array(values: Iterable[int]) -> IntArray:
    """Return ``values`` as a contiguous ``int64`` numpy array."""
    return np.ascontiguousarray(values, dtype=VERTEX_DTYPE)
