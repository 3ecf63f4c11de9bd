"""Repo-specific static analysis: the concurrency-invariant analyzer.

The paper's correctness argument is a *discipline*, not a mechanism:
grouping inserted edges by destination vertex means each vertex is
written by exactly one task per superstep, so the ``parallel_for``
loops of Algorithms 1-2 are race-free without locks (§3.1).  The
dynamic side of that argument is :class:`~repro.parallel.atomics.
OwnershipTracker`; this package is the static side — a multi-pass
analyzer (project-wide symbol table, then per-rule visitors) that
machine-checks the invariants every PR must preserve:

=====  ==============================================================
R000   a ``# repro: noqa`` comment that suppresses nothing is stale
       and must be deleted
R001   task functions passed to ``parallel_for`` /
       ``parallel_for_slabs`` must not mutate closed-over shared
       mutables unless the writes are registered with an
       :class:`OwnershipTracker` (``record_write``)
R002   no unseeded global RNG (``random.*`` / ``np.random.*``
       module-level) — randomness flows through explicit
       ``numpy.random.Generator`` parameters
R003   no bare/overbroad ``except`` and no silent exception
       swallowing
R004   public functions in ``core/``, ``parallel/``, and ``graph/``
       are fully type-annotated
R005   no wall-clock ``time.time`` outside the bench harness (the
       simulated engine's virtual clock is the only sanctioned
       notion of time elsewhere)
R006   a slab kernel's inferred write-set (direct stores, numpy
       in-place ops, one helper-call level) must match its
       ``SlabTask(writes=...)`` declaration — a dispatched superstep
       copies back, and ownership reporting covers, exactly the
       declared set
R007   callables handed to process-backed engines must be importable
       module-level functions (no lambdas, closures, bound methods);
       ``SlabTask.ref`` strings must resolve
=====  ==============================================================

Run it as ``python -m repro.analysis src tests benchmarks examples``:
it prints one ``path:line:col: CODE msg  [fix: ...]`` line per finding
and exits 1 on any finding.  Suppress a finding on one line with
``# repro: noqa(R00x)`` (or a blanket ``# repro: noqa``) — reserved
for documented intentional cases, and R000 reports any suppression
that no longer fires.

See ``docs/INVARIANTS.md`` for the mapping from each rule to the
paper section / design invariant it enforces.
"""

from repro.analysis.dataflow import WriteSet, infer_ref_writes, infer_slab_writes
from repro.analysis.rules import ALL_RULES, Rule
from repro.analysis.runner import (
    FileContext,
    Finding,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.symbols import (
    ModuleInfo,
    ProjectContext,
    build_project,
    module_name_for_path,
)

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Finding",
    "ModuleInfo",
    "ProjectContext",
    "Rule",
    "WriteSet",
    "build_project",
    "infer_ref_writes",
    "infer_slab_writes",
    "lint_file",
    "lint_paths",
    "lint_source",
    "module_name_for_path",
]
