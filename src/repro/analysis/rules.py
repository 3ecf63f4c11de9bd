"""The syntactic rule set: R001-R005, each encoding one design
invariant, plus the R000 registry entry.

Every rule carries a stable code, a one-line summary, and a one-line
fix hint; ``docs/INVARIANTS.md`` maps each to the paper section it
protects.  Rules are heuristic AST checks, not a type system — they
aim for zero false negatives on the bug classes that have actually
bitten shared-memory SSSP codebases, at the cost of requiring an
explicit ``# repro: noqa(R00x)`` for the rare intentional exception.
The interprocedural rules (R006, R007) live in
:mod:`repro.analysis.deep_rules` and join the registry at the bottom
of this module.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.runner import (
    _R000_CODE,
    _R000_HINT,
    _R000_SUMMARY,
    FileContext,
    Finding,
)

__all__ = ["Rule", "ALL_RULES"]


class Rule:
    """Base class: subclasses set ``code``/``summary``/``hint`` and
    implement ``applies`` (path scoping) and ``check``."""

    code: str = "R000"
    summary: str = ""
    hint: str = ""

    def applies(self, ctx: FileContext) -> bool:
        raise NotImplementedError

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
            hint=self.hint,
        )

    def warning(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        """Like :meth:`finding` but advisory (reported, baselined, and
        counted, yet rendered/uploaded at warning level)."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
            hint=self.hint,
            severity="warning",
        )


# ----------------------------------------------------------------- R000
class RuleR000(Rule):
    """Stale-suppression detection.

    Implemented inside the runner (which owns comment and suppression
    bookkeeping — a rule cannot know what *other* rules' findings a
    comment suppressed); this class is the registry entry that gives
    R000 a stable code, summary, and ``--list-rules`` row.
    """

    code = _R000_CODE
    summary = _R000_SUMMARY
    hint = _R000_HINT

    def applies(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())  # the runner emits R000 after suppression


def _in_repro(ctx: FileContext) -> bool:
    return ctx.repro_rel is not None and not ctx.repro_rel.startswith(
        "analysis/"
    )


def _root_name(node: ast.AST) -> Optional[str]:
    """Peel ``a.b[c].d`` down to the base ``Name`` (``a``), if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


# ----------------------------------------------------------------- R001
#: Methods that mutate their receiver in place on the builtin
#: containers and ndarrays the kernels share across tasks.
_MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem",
        "clear", "sort", "reverse", "add", "discard", "update",
        "setdefault", "fill", "put", "itemset", "resize", "partition",
    }
)

#: ``call.func`` attribute names that take a task function, mapped to
#: the positional index of that function argument.
_SUPERSTEP_METHODS = {"parallel_for": 1}
_SUPERSTEP_FUNCTIONS = {"parallel_for_slabs": 2}


class RuleR001(Rule):
    """Task functions must not mutate closed-over shared mutables
    unless the writes are registered with an OwnershipTracker."""

    code = "R001"
    summary = (
        "superstep task mutates closed-over shared state without "
        "ownership tracking"
    )
    hint = (
        "register writes via OwnershipTracker.record_write (or accept "
        "a tracker from the engine) so the single-writer-per-vertex "
        "invariant stays checkable; return proposals instead if the "
        "merge is sequential"
    )

    def applies(self, ctx: FileContext) -> bool:
        return _in_repro(ctx) or ctx.in_tests

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            fn_arg = self._task_argument(node)
            if fn_arg is None:
                continue
            task = self._resolve_task(fn_arg, node, ctx)
            if task is None:
                continue
            yield from self._check_task(task, ctx)

    # -- locating the task function -----------------------------------
    def _task_argument(self, call: ast.Call) -> Optional[ast.expr]:
        idx: Optional[int] = None
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in _SUPERSTEP_METHODS:
            idx = _SUPERSTEP_METHODS[func.attr]
        elif isinstance(func, ast.Name) and func.id in _SUPERSTEP_FUNCTIONS:
            idx = _SUPERSTEP_FUNCTIONS[func.id]
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in _SUPERSTEP_FUNCTIONS
        ):
            idx = _SUPERSTEP_FUNCTIONS[func.attr]
        if idx is None:
            return None
        for kw in call.keywords:
            if kw.arg == "fn":
                return kw.value
        if len(call.args) > idx:
            return call.args[idx]
        return None

    def _resolve_task(
        self, fn_arg: ast.expr, call: ast.Call, ctx: FileContext
    ) -> Optional[ast.AST]:
        if isinstance(fn_arg, ast.Lambda):
            return fn_arg
        if not isinstance(fn_arg, ast.Name):
            return None
        # nearest enclosing scope that defines ``name`` as a def or a
        # ``name = lambda ...`` binding; parameters and other bindings
        # are opaque (interprocedural analysis is out of scope)
        name = fn_arg.id
        for scope in [call, *ctx.ancestors(call)]:
            body = getattr(scope, "body", None)
            if not isinstance(body, list):
                continue  # e.g. a Lambda ancestor: body is an expression
            for stmt in body:
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name == name
                ):
                    return stmt
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == name
                    for t in stmt.targets
                ):
                    if isinstance(stmt.value, ast.Lambda):
                        return stmt.value
        return None

    # -- analysing the task function body ------------------------------
    def _bound_names(self, task: ast.AST) -> Set[str]:
        bound: Set[str] = set()
        args = task.args
        for a in [
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]:
            bound.add(a.arg)
        for node in ast.walk(task):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                bound.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound.add((alias.asname or alias.name).split(".")[0])
        for node in ast.walk(task):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                # declared shared on purpose -> *not* task-local
                bound.difference_update(node.names)
        return bound

    def _is_tracked(self, task: ast.AST) -> bool:
        for node in ast.walk(task):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "record_write"
            ):
                return True
        return False

    def _check_task(
        self, task: ast.AST, ctx: FileContext
    ) -> Iterator[Finding]:
        if self._is_tracked(task):
            return
        bound = self._bound_names(task)

        def shared(expr: ast.AST) -> Optional[str]:
            root = _root_name(expr)
            if root is not None and root not in bound:
                return root
            return None

        for node in ast.walk(task):
            if isinstance(node, ast.Assign):
                targets: Sequence[ast.expr] = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_METHODS
                ):
                    name = shared(func.value)
                    if name is not None:
                        yield self.finding(
                            ctx,
                            node,
                            f"task calls {name}.(...).{func.attr}() on "
                            f"closed-over {name!r} inside a superstep "
                            "without ownership tracking",
                        )
                continue
            else:
                continue
            for target in targets:
                if not isinstance(target, (ast.Subscript, ast.Attribute)):
                    continue
                name = shared(target)
                if name is not None:
                    kind = (
                        "element" if isinstance(target, ast.Subscript)
                        else "attribute"
                    )
                    yield self.finding(
                        ctx,
                        node,
                        f"task writes an {kind} of closed-over {name!r} "
                        "inside a superstep without ownership tracking",
                    )


# ----------------------------------------------------------------- R002
#: numpy.random attributes that *construct* explicit, seedable RNG
#: objects -- allowed; everything else on the module is hidden global
#: state.
_NP_RANDOM_CONSTRUCTORS = frozenset(
    {
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
    }
)
_STDLIB_RANDOM_CONSTRUCTORS = frozenset({"Random", "SystemRandom"})


class RuleR002(Rule):
    """No unseeded global RNG inside src/repro."""

    code = "R002"
    summary = "global RNG state used instead of an explicit Generator"
    hint = (
        "thread a seeded numpy.random.Generator through as a "
        "parameter (rng=np.random.default_rng(seed)); determinism is "
        "a repo ground rule"
    )

    def applies(self, ctx: FileContext) -> bool:
        return _in_repro(ctx)

    def _numpy_aliases(self, ctx: FileContext) -> Set[str]:
        aliases: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        aliases.add(alias.asname or "numpy")
        return aliases

    def _random_aliases(self, ctx: FileContext) -> Set[str]:
        aliases: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        aliases.add(alias.asname or "random")
        return aliases

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        np_aliases = self._numpy_aliases(ctx)
        rand_aliases = self._random_aliases(ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in _STDLIB_RANDOM_CONSTRUCTORS:
                            yield self.finding(
                                ctx,
                                node,
                                f"'from random import {alias.name}' pulls "
                                "in global RNG state",
                            )
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in _NP_RANDOM_CONSTRUCTORS:
                            yield self.finding(
                                ctx,
                                node,
                                "'from numpy.random import "
                                f"{alias.name}' pulls in global RNG state",
                            )
            elif isinstance(node, ast.Attribute):
                parent = ctx.parent(node)
                # random.<fn>   (stdlib module alias)
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id in rand_aliases
                    and node.attr not in _STDLIB_RANDOM_CONSTRUCTORS
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"use of global 'random.{node.attr}'",
                    )
                # np.random.<fn>  (module-level legacy API)
                elif (
                    isinstance(node.value, ast.Attribute)
                    and node.value.attr == "random"
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id in np_aliases
                    and node.attr not in _NP_RANDOM_CONSTRUCTORS
                    # ``np.random`` itself (no further attr) is fine as
                    # a namespace reference for an allowed constructor
                    and not (
                        isinstance(parent, ast.Attribute)
                    )
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"use of global 'np.random.{node.attr}'",
                    )


# ----------------------------------------------------------------- R003
class RuleR003(Rule):
    """No bare/overbroad except, no silent exception swallowing."""

    code = "R003"
    summary = "bare/overbroad except or silently swallowed exception"
    hint = (
        "catch the narrowest ReproError subclass that applies and "
        "handle or re-raise it; failures must stay loud"
    )

    def applies(self, ctx: FileContext) -> bool:
        return _in_repro(ctx)

    def _names(self, type_node: Optional[ast.expr]) -> List[str]:
        if type_node is None:
            return []
        nodes = (
            list(type_node.elts)
            if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        out: List[str] = []
        for n in nodes:
            if isinstance(n, ast.Name):
                out.append(n.id)
            elif isinstance(n, ast.Attribute):
                out.append(n.attr)
        return out

    def _swallows(self, handler: ast.ExceptHandler) -> bool:
        body = [
            stmt
            for stmt in handler.body
            if not (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
            )
        ]
        return all(isinstance(stmt, ast.Pass) for stmt in body) or not body

    def _reraises(self, handler: ast.ExceptHandler) -> bool:
        return any(
            isinstance(n, ast.Raise) for n in ast.walk(handler)
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node, "bare 'except:' catches everything"
                )
                continue
            broad = {"Exception", "BaseException"}.intersection(
                self._names(node.type)
            )
            if broad and not self._reraises(node):
                yield self.finding(
                    ctx,
                    node,
                    f"overbroad 'except {sorted(broad)[0]}' without "
                    "re-raise hides unrelated failures",
                )
            elif self._swallows(node):
                yield self.finding(
                    ctx,
                    node,
                    "exception handler silently swallows the error",
                )


# ----------------------------------------------------------------- R004
class RuleR004(Rule):
    """Public functions in core/, parallel/, graph/ must be fully
    type-annotated."""

    code = "R004"
    summary = "public function missing type annotations"
    hint = (
        "annotate every parameter and the return type; these modules "
        "are the typed core the rest of the repo builds on "
        "(mypy --strict runs over them in CI)"
    )

    _SCOPES = ("core/", "parallel/", "graph/")

    def applies(self, ctx: FileContext) -> bool:
        return ctx.repro_rel is not None and ctx.repro_rel.startswith(
            self._SCOPES
        )

    def _is_public_context(self, node: ast.AST, ctx: FileContext) -> bool:
        """Module-level function, or method of a public class; nested
        functions and private namespaces are exempt."""
        chain = list(ctx.ancestors(node))
        for anc in chain:
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            if isinstance(anc, ast.ClassDef) and anc.name.startswith("_"):
                return False
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("_") and not (
                name.startswith("__") and name.endswith("__")
            ):
                continue
            if not self._is_public_context(node, ctx):
                continue
            in_class = isinstance(ctx.parent(node), ast.ClassDef)
            args = node.args
            named = [*args.posonlyargs, *args.args]
            if in_class and named and named[0].arg in ("self", "cls"):
                named = named[1:]
            missing = [
                a.arg
                for a in [*named, *args.kwonlyargs]
                if a.annotation is None
            ]
            missing += [
                f"*{a.arg}"
                for a in [args.vararg]
                if a is not None and a.annotation is None
            ]
            missing += [
                f"**{a.arg}"
                for a in [args.kwarg]
                if a is not None and a.annotation is None
            ]
            if missing:
                yield self.finding(
                    ctx,
                    node,
                    f"public function '{name}' has unannotated "
                    f"parameter(s): {', '.join(missing)}",
                )
            if node.returns is None:
                yield self.finding(
                    ctx,
                    node,
                    f"public function '{name}' has no return annotation",
                )


# ----------------------------------------------------------------- R005
#: ``time``-module clock functions R005 polices.  ``time.sleep`` and the
#: struct/formatting helpers are fine anywhere; every function that
#: *reads a clock* must go through :mod:`repro.obs.clock` (tracer spans,
#: ``Span.elapsed``) or an engine's virtual clock instead.
_R005_CLOCKS: Set[str] = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
}


class RuleR005(Rule):
    """Clock reads stay inside ``repro/obs`` and ``repro/bench``."""

    code = "R005"
    summary = "clock read outside repro/obs and the bench harness"
    hint = (
        "time algorithm phases with repro.obs tracer spans "
        "(Span.elapsed) or the simulated engine's virtual clock; "
        "direct time.* clock reads live only in repro/obs (the "
        "sanctioned clock module) and repro/bench"
    )

    def applies(self, ctx: FileContext) -> bool:
        return _in_repro(ctx) and not ctx.repro_rel.startswith(
            ("bench/", "obs/")
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        time_aliases: Set[str] = set()
        clock_aliases: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _R005_CLOCKS:
                        clock_aliases.add(alias.asname or alias.name)
                        yield self.finding(
                            ctx,
                            node,
                            f"'from time import {alias.name}' imports "
                            "a clock",
                        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _R005_CLOCKS
                and isinstance(func.value, ast.Name)
                and func.value.id in time_aliases
            ):
                yield self.finding(
                    ctx, node, f"call to time.{func.attr}()"
                )
            elif (
                isinstance(func, ast.Name)
                and func.id in clock_aliases
            ):
                yield self.finding(
                    ctx, node, f"call to {func.id}() clock"
                )


# The interprocedural rules import ``Rule`` from this module, so this
# import must sit below the class definitions (cycle bottoms out here).
from repro.analysis.deep_rules import RuleR006, RuleR007  # noqa: E402

ALL_RULES: Tuple[Rule, ...] = (
    RuleR000(),
    RuleR001(),
    RuleR002(),
    RuleR003(),
    RuleR004(),
    RuleR005(),
    RuleR006(),
    RuleR007(),
)
