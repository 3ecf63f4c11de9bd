"""Write-set inference for slab kernels (the dataflow half of R006).

A slab kernel has the signature ``fn(arrays, params, lo, hi)`` and is
dispatched by reference (:class:`~repro.parallel.api.SlabTask`); its
``writes=(...)`` declaration is load-bearing — after a dispatched
superstep the shm backend copies exactly those arrays back into the
caller's (an undeclared write is lost there but kept inline), and
:class:`~repro.parallel.checked.CheckedEngine` scopes its runtime
cross-check to them.  This module infers, from the AST alone, which
task arrays a kernel actually stores into:

- direct subscript stores: ``arrays["k"][lo:hi] = ...`` and stores
  through local views (``d = arrays["k"]; d[v] = ...``), including
  view chains (``w = arrays["k"][:, j]``) and in-place ``d[...] op=``;
- numpy in-place forms: ``out=`` keyword arguments, ``ufunc.at``,
  ``np.copyto(dst, ...)``, and mutating ndarray methods
  (``fill``/``sort``/``put``/...);
- one level of helper-call propagation: a helper receiving the whole
  catalog is analysed as a nested slab kernel; a helper receiving a
  mapped view contributes a write when it mutates that parameter.

Inference is a heuristic, not an escape analysis: aliases created
through opaque calls (``np.asarray(d)``) are dropped, and a call to an
*unresolvable* non-numpy callee that receives a mapped array marks the
result *incomplete*.  Incomplete inference suppresses the
declared-but-never-written warning (we cannot prove "never") but keeps
every positively inferred write — undeclared-write errors stay sound
with respect to what the pass can see.
"""

from __future__ import annotations

import ast
import importlib.util
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.symbols import FunctionNode, ModuleInfo, ProjectContext

__all__ = [
    "WriteSet",
    "infer_slab_writes",
    "infer_ref_writes",
    "slab_positional_params",
]

#: Sentinel catalog key for a store whose slot name cannot be folded
#: to a string literal (``arrays[params["target"]]`` and friends).
_DYNAMIC = "<dynamic>"

#: ndarray methods that mutate their receiver in place.
_MUTATING_ARRAY_METHODS = frozenset(
    {"fill", "sort", "put", "partition", "itemset", "resize", "setfield",
     "byteswap"}
)

#: Builtins assumed pure when called with mapped arrays.
_PURE_BUILTINS = frozenset(
    {"abs", "bool", "enumerate", "float", "int", "len", "list", "max",
     "min", "print", "range", "repr", "reversed", "set", "sorted", "str",
     "sum", "tuple", "zip"}
)


@dataclass(frozen=True)
class WriteSet:
    """Inferred writes plus whether the inference saw everything.

    ``complete=False`` means some store or call could not be analysed;
    ``writes`` is still a lower bound on the kernel's true write-set.
    """

    writes: FrozenSet[str]
    complete: bool


def slab_positional_params(fn: FunctionNode) -> List[str]:
    """Positional parameter names of a kernel def."""
    return [a.arg for a in [*fn.args.posonlyargs, *fn.args.args]]


class _FnAnalysis:
    """One function-body pass: ordered statement walk with a
    var -> catalog-key environment."""

    def __init__(
        self,
        project: ProjectContext,
        mi: ModuleInfo,
        fn: FunctionNode,
        catalog: Optional[str],
        env: Dict[str, str],
        depth: int,
    ) -> None:
        self.project = project
        self.mi = mi
        self.fn = fn
        self.catalog = catalog
        self.env = dict(env)
        self.depth = depth
        self.writes: Set[str] = set()
        self.complete = True
        self.local_imports: Dict[str, Tuple[str, str]] = {}
        self.np_aliases: Set[str] = {
            alias
            for alias, module in mi.import_modules.items()
            if module == "numpy"
        }

    def run(self) -> WriteSet:
        self._stmts(self.fn.body)
        return WriteSet(frozenset(self.writes), self.complete)

    # -- environment ----------------------------------------------------
    def _is_catalog(self, node: ast.AST) -> bool:
        return (
            self.catalog is not None
            and isinstance(node, ast.Name)
            and node.id == self.catalog
        )

    def _subscript_key(self, sub: ast.Subscript) -> str:
        key = self.project.resolve_str(self.mi, sub.slice)
        return key if key is not None else _DYNAMIC

    def _key_of(self, expr: ast.expr) -> Optional[str]:
        """Catalog key ``expr`` aliases, peeling view-preserving layers
        (subscripts and attributes like ``.T``); ``None`` if unmapped."""
        node: ast.expr = expr
        while True:
            if isinstance(node, ast.Subscript):
                if self._is_catalog(node.value):
                    return self._subscript_key(node)
                node = node.value
            elif isinstance(node, ast.Attribute):
                node = node.value
            elif isinstance(node, ast.Starred):
                node = node.value
            else:
                break
        if isinstance(node, ast.Name) and not self._is_catalog(node):
            return self.env.get(node.id)
        return None

    def _add_write(self, key: Optional[str]) -> None:
        if key is None:
            return
        if key == _DYNAMIC:
            self.complete = False
        else:
            self.writes.add(key)

    # -- statements -----------------------------------------------------
    def _stmts(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested defs: calls to them resolve to nothing
        if isinstance(stmt, ast.ImportFrom):
            if stmt.level == 0 and stmt.module:
                for alias in stmt.names:
                    self.local_imports[alias.asname or alias.name] = (
                        stmt.module,
                        alias.name,
                    )
            return
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.name == "numpy":
                    self.np_aliases.add(alias.asname or "numpy")
            return
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value)
            for target in stmt.targets:
                self._target(target, stmt.value)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._scan_expr(stmt.value)
            self._target(stmt.target, stmt.value)
            return
        if isinstance(stmt, ast.AugAssign):
            self._scan_expr(stmt.value)
            if isinstance(stmt.target, ast.Subscript):
                self._record_store(stmt.target)
            elif isinstance(stmt.target, ast.Name):
                # in-place operator on a mapped view mutates the array
                self._add_write(self.env.get(stmt.target.id))
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter)
            self._unbind(stmt.target)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._scan_expr(stmt.test)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(item.context_expr)
                if item.optional_vars is not None:
                    self._unbind(item.optional_vars)
            self._stmts(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self._stmts(stmt.body)
            for handler in stmt.handlers:
                self._stmts(handler.body)
            self._stmts(stmt.orelse)
            self._stmts(stmt.finalbody)
            return
        # Expr / Return / Raise / Assert / Delete / ...: scan any child
        # expressions for mutating calls
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child)

    def _unbind(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.env.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._unbind(elt)
        elif isinstance(target, ast.Starred):
            self._unbind(target.value)

    def _target(self, target: ast.expr, value: Optional[ast.expr]) -> None:
        if isinstance(target, ast.Name):
            key = self._key_of(value) if value is not None else None
            if key is not None:
                self.env[target.id] = key
            else:
                self.env.pop(target.id, None)
        elif isinstance(target, ast.Subscript):
            self._record_store(target)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._target(elt, None)
        elif isinstance(target, ast.Starred):
            self._target(target.value, None)
        # Attribute targets (obj.x = ...) do not touch planted arrays

    def _record_store(self, sub: ast.Subscript) -> None:
        if self._is_catalog(sub.value):
            # ``arrays["k"] = ...`` rebinds the catalog slot itself
            self._add_write(self._subscript_key(sub))
            return
        self._add_write(self._key_of(sub.value))

    # -- expressions / calls --------------------------------------------
    def _scan_expr(self, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._call(node)

    def _root_name(self, node: ast.expr) -> Optional[str]:
        while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
            node = getattr(node, "value", getattr(node, "func", node))
        return node.id if isinstance(node, ast.Name) else None

    def _call(self, call: ast.Call) -> None:
        for kw in call.keywords:
            if kw.arg == "out":
                outs = (
                    kw.value.elts
                    if isinstance(kw.value, (ast.Tuple, ast.List))
                    else [kw.value]
                )
                for out in outs:
                    self._add_write(self._key_of(out))
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr == "at" and len(call.args) >= 2:
                # ufunc.at(arr, idx[, vals]) mutates arr in place
                self._add_write(self._key_of(call.args[0]))
                return
            if func.attr in _MUTATING_ARRAY_METHODS:
                self._add_write(self._key_of(func.value))
                return
            if func.attr == "copyto" and call.args:
                root = self._root_name(func.value)
                if root in self.np_aliases:
                    self._add_write(self._key_of(call.args[0]))
                    return
            # non-mutating method on a mapped array: pure
            if self._key_of(func.value) is not None:
                return
        resolved = (
            self.project.resolve_call(self.mi, func, self.local_imports)
            if self.depth > 0
            else None
        )
        if resolved is not None:
            self._helper_call(call, *resolved)
            return
        # unknown callee: numpy namespace calls and builtins are
        # assumed pure; anything else fed a mapped array (or the whole
        # catalog) makes the inference incomplete
        root = self._root_name(func)
        if root in self.np_aliases:
            return
        if isinstance(func, ast.Name) and func.id in _PURE_BUILTINS:
            return
        for arg in [*call.args, *[kw.value for kw in call.keywords]]:
            if self._is_catalog(arg) or self._key_of(arg) is not None:
                self.complete = False
                return

    def _helper_call(
        self, call: ast.Call, helper_mi: ModuleInfo, helper_fn: FunctionNode
    ) -> None:
        params = slab_positional_params(helper_fn)
        mutated: Optional[WriteSet] = None  # lazily computed param pass
        bound: List[Tuple[str, ast.expr]] = []
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred) or i >= len(params):
                self.complete = False
                continue
            bound.append((params[i], arg))
        for kw in call.keywords:
            if kw.arg is None:  # **kwargs
                self.complete = False
            elif kw.arg in params:
                bound.append((kw.arg, kw.value))
        for param, arg in bound:
            if self._is_catalog(arg):
                # whole catalog handed down: analyse the helper as a
                # nested slab kernel rooted at that parameter
                sub = _FnAnalysis(
                    self.project, helper_mi, helper_fn,
                    catalog=param, env={}, depth=self.depth - 1,
                ).run()
                self.writes.update(sub.writes)
                self.complete = self.complete and sub.complete
                continue
            key = self._key_of(arg)
            if key is None:
                continue
            if mutated is None:
                mutated = _FnAnalysis(
                    self.project, helper_mi, helper_fn,
                    catalog=None,
                    env={p: f"<param:{p}>" for p in params},
                    depth=self.depth - 1,
                ).run()
            if f"<param:{param}>" in mutated.writes:
                self._add_write(key)
            self.complete = self.complete and mutated.complete


def infer_slab_writes(
    project: ProjectContext,
    mi: ModuleInfo,
    fn: FunctionNode,
    depth: int = 1,
) -> WriteSet:
    """Infer the planted catalog arrays ``fn`` stores into.

    ``depth`` bounds helper-call propagation: 1 (the default and the
    contract R006 documents) analyses helpers called directly from the
    kernel body but not *their* callees.
    """
    params = slab_positional_params(fn)
    if len(params) < 4:
        # not slab-shaped: nothing to say, and nothing provable
        return WriteSet(frozenset(), False)
    return _FnAnalysis(
        project, mi, fn, catalog=params[0], env={}, depth=depth
    ).run()


# -- runtime entry point (CheckedEngine cross-check) --------------------

_REF_CACHE: Dict[str, Optional[WriteSet]] = {}


def _spec_origin(name: str) -> Optional[str]:
    """Locate a module's source file without importing it; restricted
    to this repository's namespaces so the lazy loader never parses
    site-packages."""
    if not name.split(".")[0] in {"repro", "tests", "benchmarks", "examples"}:
        return None
    try:
        spec = importlib.util.find_spec(name)
    except (ImportError, AttributeError, ValueError):
        return None
    if spec is not None and spec.origin and spec.origin.endswith(".py"):
        return spec.origin
    return None


def infer_ref_writes(ref: str) -> Optional[WriteSet]:
    """Infer the write-set of a ``"module:qualname"`` kernel reference.

    Used by :class:`~repro.parallel.checked.CheckedEngine` to
    cross-check a :class:`SlabTask`'s declaration at dispatch time.
    Returns ``None`` when the reference cannot be located or parsed —
    the runtime check degrades to observation-only, never to a crash.
    """
    if ref in _REF_CACHE:
        return _REF_CACHE[ref]
    result: Optional[WriteSet] = None
    project = ProjectContext()
    project.loader = _spec_origin
    status, mi, fn = project.resolve_ref(ref)
    if status == "ok" and mi is not None and fn is not None:
        result = infer_slab_writes(project, mi, fn, depth=1)
    _REF_CACHE[ref] = result
    return result
