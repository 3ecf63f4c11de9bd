"""The interprocedural rules: R006 (write-sets) and R007 (spawn safety).

Unlike R001-R005, these rules read the :class:`~repro.analysis.symbols.
ProjectContext` the runner attaches to every :class:`FileContext`: a
``SlabTask`` at a dispatch site names its kernel by ``"module:qualname"``
reference, and the kernel — possibly in another file — is what R006
actually analyses.  ``docs/INVARIANTS.md`` maps each rule to the paper
argument and runtime contract it protects.
"""

from __future__ import annotations

import ast
import builtins
from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.dataflow import infer_slab_writes, slab_positional_params
from repro.analysis.rules import Rule
from repro.analysis.runner import FileContext, Finding
from repro.analysis.symbols import ModuleInfo, ProjectContext

__all__ = ["RuleR006", "RuleR007"]

_BUILTIN_NAMES = frozenset(dir(builtins))

#: SlabTask dataclass field order, for positional construction sites.
_SLABTASK_FIELDS = ("ref", "arrays", "params", "writes")

#: Engine constructors whose ``parallel_for`` closures cross a
#: process boundary (spawn pickling).  Thread/serial/simulated engines
#: run closures natively and are exempt.
_PROCESS_ENGINE_CLASSES = frozenset({"SharedMemoryEngine"})
_PROCESS_ENGINE_NAMES = frozenset({"shm"})


def _project_of(ctx: FileContext) -> Tuple[ProjectContext, Optional[ModuleInfo]]:
    """The run's symbol table and this file's module entry.  The runner
    registers every linted file before rules run; a bare ``FileContext``
    (unit tests poking a rule directly) gets a single-file table."""
    project = getattr(ctx, "project", None)
    if project is None:
        project = ProjectContext()
        project.add_source(ctx.path, ctx.source, tree=ctx.tree)
    mi = project.module_for_path(ctx.path)
    if mi is None:
        mi = project.add_source(ctx.path, ctx.source, tree=ctx.tree)
    return project, mi


def _slabtask_arg(call: ast.Call, field: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == field:
            return kw.value
    idx = _SLABTASK_FIELDS.index(field)
    if len(call.args) > idx:
        arg = call.args[idx]
        if not isinstance(arg, ast.Starred):
            return arg
    return None


def _bound_names(
    project: ProjectContext, mi: ModuleInfo, node: ast.expr
) -> Optional[Tuple[str, ...]]:
    """The logical names of a ``SlabTask(arrays=...)`` value: the keys
    of a dict literal with constant keys, or a tuple of names."""
    if isinstance(node, ast.Dict):
        names: List[str] = []
        for key in node.keys:
            s = project.resolve_str(mi, key) if key is not None else None
            if s is None:
                return None  # ``**spread`` or a computed key
            names.append(s)
        return tuple(names)
    return project.resolve_str_tuple(mi, node)


def _is_slabtask_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "SlabTask"
    return isinstance(func, ast.Attribute) and func.attr == "SlabTask"


# ----------------------------------------------------------------- R006
class RuleR006(Rule):
    """A slab kernel's declared ``writes=`` must match what it stores.

    The declaration is load-bearing twice over: a dispatched shm
    superstep copies exactly ``task.writes`` back into the caller's
    arrays, so an undeclared write is lost after a dispatch but kept
    inline — the result then depends on the engine's dispatch
    decision; and ownership reporting scopes to the declared set, so an
    undeclared write escapes the single-writer sanitizer entirely.
    """

    code = "R006"
    summary = (
        "slab kernel write-set drifts from its SlabTask writes= "
        "declaration"
    )
    hint = (
        "declare every task array the kernel (or a helper it calls) "
        "stores into in SlabTask(writes=...); a dispatched superstep "
        "copies back, and the ownership sanitizer checks, only declared "
        "writes"
    )

    def applies(self, ctx: FileContext) -> bool:
        return True  # dispatch sites exist in src, tests and benchmarks

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        project, mi = _project_of(ctx)
        if mi is None:
            return
        for node in ast.walk(ctx.tree):
            if not _is_slabtask_call(node):
                continue
            yield from self._check_site(ctx, project, mi, node)

    def _check_site(
        self,
        ctx: FileContext,
        project: ProjectContext,
        mi: ModuleInfo,
        call: ast.Call,
    ) -> Iterator[Finding]:
        writes_expr = _slabtask_arg(call, "writes")
        if writes_expr is None or (
            isinstance(writes_expr, ast.Constant)
            and writes_expr.value is None
        ):
            return  # writes=None: documented "unknown, copy all back"
        ref_expr = _slabtask_arg(call, "ref")
        if ref_expr is None:
            return
        ref = project.resolve_str(mi, ref_expr)
        declared = (
            project.resolve_str_tuple(mi, writes_expr)
            if ref is not None
            else None
        )
        if ref is None or declared is None:
            return  # dynamic ref/writes: nothing provable statically
        arrays_expr = _slabtask_arg(call, "arrays")
        arrays = (
            _bound_names(project, mi, arrays_expr)
            if arrays_expr is not None
            else None
        )
        if arrays is not None:
            phantom = sorted(set(declared) - set(arrays))
            if phantom:
                yield self.finding(
                    ctx,
                    call,
                    f"kernel '{ref}' declares writes to "
                    f"{', '.join(phantom)} absent from task.arrays "
                    "(the copy-back would fail at dispatch)",
                )
        status, kernel_mi, fn = project.resolve_ref(ref)
        if status != "ok" or kernel_mi is None or fn is None:
            return  # unresolvable refs are R007's report, not R006's
        if len(slab_positional_params(fn)) < 4:
            return
        inferred = infer_slab_writes(project, kernel_mi, fn, depth=1)
        undeclared = sorted(inferred.writes - set(declared))
        if undeclared:
            yield self.finding(
                ctx,
                call,
                f"kernel '{ref}' writes task array(s) "
                f"{', '.join(undeclared)} not declared in writes="
                f"{tuple(declared)!r}",
            )
        if inferred.complete:
            unwritten = sorted(set(declared) - inferred.writes)
            if unwritten:
                yield self.warning(
                    ctx,
                    call,
                    f"kernel '{ref}' never writes declared array(s) "
                    f"{', '.join(unwritten)} (stale writes= entry "
                    "forces needless copy-backs after a dispatch)",
                )


# ----------------------------------------------------------------- R007
class RuleR007(Rule):
    """Callables crossing a process boundary must be importable.

    The static twin of the shm backend's ``_GuardPickler``: spawn
    workers re-import task functions by qualified name, so lambdas,
    nested defs (closure cells), and bound methods either fail to
    pickle or silently degrade the dispatch to its serial fallback.
    ``SlabTask.ref`` strings get the same treatment — they must name a
    resolvable module-level function.
    """

    code = "R007"
    summary = (
        "non-importable callable (lambda/closure/bound method) handed "
        "to a process-backed engine"
    )
    hint = (
        "hoist the task to a module-level function and pass state "
        "through items or SlabTask params; process backends re-import "
        "tasks by qualified name in spawn workers"
    )

    def applies(self, ctx: FileContext) -> bool:
        return True

    # -- which expressions denote process-backed engines ---------------
    def _ctor_is_process_backed(self, node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name in _PROCESS_ENGINE_CLASSES:
            return True
        if name == "resolve_engine" and node.args:
            first = node.args[0]
            return (
                isinstance(first, ast.Constant)
                and first.value in _PROCESS_ENGINE_NAMES
            )
        return False

    @staticmethod
    def _scope_nodes(stmts: Sequence[ast.stmt]) -> Iterator[ast.AST]:
        """Walk ``stmts`` without descending into nested scopes.

        Engine variables are tracked lexically: an ``eng`` bound to a
        ``SharedMemoryEngine`` inside one function must not taint an ``eng``
        bound to a thread engine in a sibling function, so each
        def/class body is analysed as its own scope (inheriting the
        enclosing bindings) rather than in one file-global pass.
        """
        stack: List[ast.AST] = list(stmts)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node,
                (
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.Lambda,
                    ast.ClassDef,
                ),
            ):
                continue  # nested scope: yielded as a marker, not entered
            stack.extend(ast.iter_child_nodes(node))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        project, mi = _project_of(ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and _is_slabtask_call(node):
                yield from self._check_ref(ctx, project, mi, node)
        yield from self._check_scope(ctx, mi, ctx.tree.body, frozenset())

    def _check_scope(
        self,
        ctx: FileContext,
        mi: Optional[ModuleInfo],
        body: Sequence[ast.stmt],
        inherited: FrozenSet[str],
    ) -> Iterator[Finding]:
        pb_vars: Set[str] = set(inherited)
        nested: List[Sequence[ast.stmt]] = []
        for node in self._scope_nodes(body):
            if isinstance(node, ast.Assign):
                if self._ctor_is_process_backed(node.value):
                    for t in node.targets:
                        if isinstance(t, ast.Name):
                            pb_vars.add(t.id)
            elif isinstance(node, ast.AnnAssign):
                if node.value is not None and self._ctor_is_process_backed(
                    node.value
                ) and isinstance(node.target, ast.Name):
                    pb_vars.add(node.target.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if self._ctor_is_process_backed(
                        item.context_expr
                    ) and isinstance(item.optional_vars, ast.Name):
                        pb_vars.add(item.optional_vars.id)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                nested.append(node.body)
        for node in self._scope_nodes(body):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr == "parallel_for"
            ):
                continue
            receiver = func.value
            if not (
                (isinstance(receiver, ast.Name) and receiver.id in pb_vars)
                or self._ctor_is_process_backed(receiver)
            ):
                continue
            task_arg = next(
                (kw.value for kw in node.keywords if kw.arg == "fn"), None
            )
            if task_arg is None and len(node.args) > 1:
                task_arg = node.args[1]
            if task_arg is not None:
                yield from self._check_callable(ctx, mi, node, task_arg)
        frozen = frozenset(pb_vars)
        for child_body in nested:
            yield from self._check_scope(ctx, mi, child_body, frozen)

    # -- classifying the task argument ---------------------------------
    def _check_callable(
        self,
        ctx: FileContext,
        mi: Optional[ModuleInfo],
        call: ast.Call,
        arg: ast.expr,
    ) -> Iterator[Finding]:
        if isinstance(arg, ast.Lambda):
            yield self.finding(
                ctx,
                call,
                "lambda passed to a process-backed engine cannot be "
                "pickled for spawn workers",
            )
            return
        if isinstance(arg, ast.Attribute):
            root = arg.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id == "self":
                yield self.finding(
                    ctx,
                    call,
                    f"bound method '{ast.unparse(arg)}' passed to a "
                    "process-backed engine drags its instance through "
                    "the pickle round-trip",
                )
            return
        if not isinstance(arg, ast.Name):
            return
        resolved = self._resolve_local(arg.id, call, ctx)
        if resolved is None:
            return
        defn, scope = resolved
        if isinstance(defn, ast.Lambda):
            yield self.finding(
                ctx,
                call,
                f"'{arg.id}' is a lambda binding; process-backed "
                "engines cannot pickle it for spawn workers",
            )
            return
        if isinstance(scope, ast.Module):
            return  # module-level def: importable by qualname
        captured = self._free_names(defn, mi)
        detail = (
            f" capturing {', '.join(sorted(captured))}" if captured else ""
        )
        yield self.finding(
            ctx,
            call,
            f"nested function '{arg.id}' (line {defn.lineno}){detail} "
            "is not importable by spawn workers; hoist it to module "
            "level",
        )

    def _resolve_local(
        self, name: str, call: ast.Call, ctx: FileContext
    ) -> Optional[Tuple[ast.AST, ast.AST]]:
        for scope in [call, *ctx.ancestors(call)]:
            body = getattr(scope, "body", None)
            if not isinstance(body, list):
                continue
            for stmt in body:
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name == name
                ):
                    return stmt, scope
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == name
                    for t in stmt.targets
                ):
                    if isinstance(stmt.value, ast.Lambda):
                        return stmt.value, scope
        return None

    def _free_names(
        self, defn: ast.AST, mi: Optional[ModuleInfo]
    ) -> Set[str]:
        bound: Set[str] = set()
        args = defn.args
        for a in [
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]:
            bound.add(a.arg)
        loads: Set[str] = set()
        for node in ast.walk(defn):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    bound.add(node.id)
                else:
                    loads.add(node.id)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if node is not defn:
                    bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound.add((alias.asname or alias.name).split(".")[0])
        module_names: Set[str] = set()
        if mi is not None:
            module_names = (
                set(mi.functions)
                | set(mi.constants)
                | set(mi.import_modules)
                | set(mi.import_names)
            )
        return loads - bound - module_names - _BUILTIN_NAMES

    # -- SlabTask ref strings -------------------------------------------
    def _check_ref(
        self,
        ctx: FileContext,
        project: ProjectContext,
        mi: Optional[ModuleInfo],
        call: ast.Call,
    ) -> Iterator[Finding]:
        if mi is None:
            return
        ref_expr = _slabtask_arg(call, "ref")
        if ref_expr is None:
            return
        ref = project.resolve_str(mi, ref_expr)
        if ref is None:
            return
        status, _, _ = project.resolve_ref(ref)
        if status == "bad-format":
            yield self.finding(
                ctx,
                call,
                f"SlabTask ref {ref!r} is not of the importable "
                "'module:qualname' form",
            )
        elif status == "not-module-level":
            yield self.finding(
                ctx,
                call,
                f"SlabTask ref {ref!r} names a function defined inside "
                "another function; spawn workers cannot import it",
            )
        elif status == "unknown-function":
            yield self.finding(
                ctx,
                call,
                f"SlabTask ref {ref!r} does not resolve to a "
                "module-level function in its module",
            )
        # unknown-module: outside the lint run's view — nothing provable
