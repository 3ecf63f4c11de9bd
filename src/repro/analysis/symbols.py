"""Project-wide symbol table for the interprocedural passes.

The per-file rules (R001-R005) never need to see more than one module
at a time.  The deep rules added for write-set verification (R006) and
spawn safety (R007) do: a ``SlabTask`` names its kernel by an
importable ``"module:qualname"`` reference, the kernel may live in a
different file than the dispatch site, and its write-set can flow
through helper calls.  :class:`ProjectContext` is the shared substrate
for those passes — a map from dotted module names to parsed ASTs with
just enough indexing (top-level functions, class methods one level
deep, constant bindings, import aliases) to resolve kernel references,
string/tuple constants, and direct calls across files.

Everything here is still stdlib-only ``ast``: modules are *parsed*,
never imported, so linting cannot execute repository code.
"""

from __future__ import annotations

import ast
from pathlib import Path, PurePath
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

__all__ = [
    "ModuleInfo",
    "ProjectContext",
    "build_project",
    "dotted_name",
    "module_name_for_path",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Directory names that anchor a dotted module name.  ``src`` is a
#: layout prefix (dropped); the others are importable top-level
#: packages/namespaces of this repo and stay in the name.
_KEPT_ANCHORS = ("tests", "benchmarks", "examples")


def module_name_for_path(path: str) -> str:
    """Best-effort dotted module name for a repository file path.

    ``src/repro/core/kernels.py`` -> ``repro.core.kernels``;
    ``tests/_shm_support.py`` -> ``tests._shm_support``; files outside
    any known anchor fall back to their stem (so a fixture linted in
    isolation can still self-reference as ``"<stem>:fn"``).
    """
    parts: List[str] = list(PurePath(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "src" in parts:
        idx = len(parts) - 1 - parts[::-1].index("src")
        rel = parts[idx + 1 :]
    else:
        for anchor in _KEPT_ANCHORS:
            if anchor in parts:
                idx = len(parts) - 1 - parts[::-1].index(anchor)
                rel = parts[idx:]
                break
        else:
            rel = parts[-1:]
    return ".".join(rel)


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render an ``a.b.c`` Name/Attribute chain, or ``None``."""
    chain: List[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    chain.append(node.id)
    return ".".join(reversed(chain))


class ModuleInfo:
    """One parsed module plus the indexes the deep rules query.

    Attributes
    ----------
    functions:
        Top-level defs by name, plus first-level class methods under
        their ``Cls.method`` qualname (matching how
        ``SlabTask``'s getattr-chain resolver walks qualnames).
    constants:
        Module-level ``NAME = <literal-ish>`` bindings (Assign and
        AnnAssign), used to resolve ``writes=_SOSP_WRITES`` and
        ``ref=DOUBLE`` without importing anything.
    import_modules:
        Local alias -> dotted module for ``import x.y as z``.
    import_names:
        Local alias -> ``(module, original_name)`` for
        ``from m import orig as alias``.
    """

    def __init__(self, name: str, path: str, tree: ast.Module) -> None:
        self.name = name
        self.path = path
        self.tree = tree
        self.functions: Dict[str, FunctionNode] = {}
        self.constants: Dict[str, ast.expr] = {}
        self.import_modules: Dict[str, str] = {}
        self.import_names: Dict[str, Tuple[str, str]] = {}
        self._index()

    def _record_import(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    self.import_modules[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    self.import_modules[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = self.name.split(".")[: -node.level or None]
                mod = ".".join(base + ([node.module] if node.module else []))
            else:
                mod = node.module or ""
            for alias in node.names:
                self.import_names[alias.asname or alias.name] = (
                    mod,
                    alias.name,
                )

    def _index(self) -> None:
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self.functions[f"{node.name}.{sub.name}"] = sub
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    self.constants[target.id] = node.value
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.value is not None
            ):
                self.constants[node.target.id] = node.value
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                self._record_import(node)


class ProjectContext:
    """The project-wide pass: every module the lint run can see.

    A full repository walk registers every file before any rule runs,
    so cross-file kernel references resolve; a single-file lint (the
    fixture tests) registers just that file, and unresolvable external
    references degrade to "unknown" rather than false positives.
    """

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        #: Optional fallback: dotted module name -> source path.  The
        #: runtime cross-check installs an ``importlib.util.find_spec``
        #: locator here so kernel refs resolve outside a full walk;
        #: static lint runs leave it ``None`` (no filesystem surprises).
        self.loader: Optional[Callable[[str], Optional[str]]] = None
        self._loading: Set[str] = set()

    # -- registration ---------------------------------------------------
    def add_source(
        self, path: str, source: str, tree: Optional[ast.Module] = None
    ) -> Optional[ModuleInfo]:
        """Parse and register one module; ``None`` on syntax errors
        (the per-file lint reports those — registration stays quiet)."""
        if tree is None:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                return None
        mi = ModuleInfo(module_name_for_path(path), path, tree)
        self.modules[mi.name] = mi
        self.by_path[str(Path(path))] = mi
        return mi

    def add_file(self, path: str) -> Optional[ModuleInfo]:
        try:
            source = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return None
        return self.add_source(path, source)

    # -- lookups --------------------------------------------------------
    def module(self, name: str) -> Optional[ModuleInfo]:
        return self.modules.get(name)

    def module_for_path(self, path: str) -> Optional[ModuleInfo]:
        return self.by_path.get(str(Path(path)))

    def resolve_module(self, name: str) -> Optional[ModuleInfo]:
        """Exact dotted-name match, else the lazy loader, else a unique
        tail-component match (lets a standalone fixture reference
        itself by bare stem)."""
        mi = self.modules.get(name)
        if mi is not None:
            return mi
        if self.loader is not None and name not in self._loading:
            self._loading.add(name)
            try:
                path = self.loader(name)
                if path is not None:
                    loaded = self.add_file(path)
                    if loaded is not None:
                        # register under the requested name too, in case
                        # the path-derived name differs
                        self.modules.setdefault(name, loaded)
                        return loaded
            finally:
                self._loading.discard(name)
        if "." in name:
            return None
        tails = [
            m
            for mod_name, m in self.modules.items()
            if mod_name.split(".")[-1] == name
        ]
        return tails[0] if len(tails) == 1 else None

    def resolve_ref(
        self, ref: str
    ) -> Tuple[str, Optional[ModuleInfo], Optional[FunctionNode]]:
        """Resolve a ``"module:qualname"`` kernel reference.

        Returns ``(status, module, function)`` with status one of
        ``ok`` / ``bad-format`` / ``not-module-level`` /
        ``unknown-module`` / ``unknown-function``.  ``unknown-module``
        is *not* an error for callers: it means the module is outside
        the lint run's view, so nothing can be proven either way.
        """
        if ":" not in ref:
            return "bad-format", None, None
        mod_name, _, qualname = ref.partition(":")
        if not mod_name or not qualname:
            return "bad-format", None, None
        if "<locals>" in qualname:
            return "not-module-level", None, None
        mi = self.resolve_module(mod_name)
        if mi is None:
            return "unknown-module", None, None
        fn = mi.functions.get(qualname)
        if fn is None:
            return "unknown-function", mi, None
        return "ok", mi, fn

    def resolve_call(
        self,
        mi: ModuleInfo,
        func: ast.expr,
        local_imports: Optional[Dict[str, Tuple[str, str]]] = None,
    ) -> Optional[Tuple[ModuleInfo, FunctionNode]]:
        """Resolve a call expression to its def, across one import hop.

        Handles ``helper(...)`` (local def or ``from m import helper``,
        including function-level imports via ``local_imports``) and
        ``mod.helper(...)`` where ``mod`` is an imported module alias.
        """
        if isinstance(func, ast.Name):
            fn = mi.functions.get(func.id)
            if fn is not None:
                return mi, fn
            imported = (local_imports or {}).get(func.id) or (
                mi.import_names.get(func.id)
            )
            if imported is not None:
                src_mod, orig = imported
                target = self.resolve_module(src_mod)
                if target is not None:
                    target_fn = target.functions.get(orig)
                    if target_fn is not None:
                        return target, target_fn
            return None
        dotted = dotted_name(func)
        if dotted is None or "." not in dotted:
            return None
        prefix, _, attr = dotted.rpartition(".")
        root = prefix.split(".")[0]
        mod_alias = mi.import_modules.get(root)
        if mod_alias is None:
            return None
        target_name = ".".join([mod_alias, *prefix.split(".")[1:]])
        target = self.resolve_module(target_name)
        if target is None:
            return None
        target_fn = target.functions.get(attr)
        if target_fn is None:
            return None
        return target, target_fn

    # -- constant folding ----------------------------------------------
    def resolve_str(
        self, mi: ModuleInfo, node: ast.expr, _depth: int = 4
    ) -> Optional[str]:
        """Fold ``node`` to a string literal through Name/import hops."""
        if _depth <= 0:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            const = mi.constants.get(node.id)
            if const is not None:
                return self.resolve_str(mi, const, _depth - 1)
            imported = mi.import_names.get(node.id)
            if imported is not None:
                src = self.resolve_module(imported[0])
                if src is not None:
                    const = src.constants.get(imported[1])
                    if const is not None:
                        return self.resolve_str(src, const, _depth - 1)
            return None
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is None or "." not in dotted:
                return None
            prefix, _, attr = dotted.rpartition(".")
            mod_alias = mi.import_modules.get(prefix.split(".")[0])
            if mod_alias is None:
                return None
            target = self.resolve_module(
                ".".join([mod_alias, *prefix.split(".")[1:]])
            )
            if target is None:
                return None
            const = target.constants.get(attr)
            if const is None:
                return None
            return self.resolve_str(target, const, _depth - 1)
        return None

    def resolve_str_tuple(
        self, mi: ModuleInfo, node: ast.expr, _depth: int = 4
    ) -> Optional[Tuple[str, ...]]:
        """Fold ``node`` to a tuple of strings (``writes=`` values)."""
        if _depth <= 0:
            return None
        if isinstance(node, (ast.Tuple, ast.List)):
            out: List[str] = []
            for elt in node.elts:
                s = self.resolve_str(mi, elt, _depth - 1)
                if s is None:
                    return None
                out.append(s)
            return tuple(out)
        if isinstance(node, (ast.Name, ast.Attribute)):
            const: Optional[ast.expr] = None
            src: Optional[ModuleInfo] = None
            if isinstance(node, ast.Name):
                const, src = mi.constants.get(node.id), mi
                if const is None:
                    imported = mi.import_names.get(node.id)
                    if imported is not None:
                        src = self.resolve_module(imported[0])
                        if src is not None:
                            const = src.constants.get(imported[1])
            else:
                dotted = dotted_name(node)
                if dotted is not None and "." in dotted:
                    prefix, _, attr = dotted.rpartition(".")
                    mod_alias = mi.import_modules.get(prefix.split(".")[0])
                    if mod_alias is not None:
                        src = self.resolve_module(
                            ".".join([mod_alias, *prefix.split(".")[1:]])
                        )
                        if src is not None:
                            const = src.constants.get(attr)
            if const is not None and src is not None:
                return self.resolve_str_tuple(src, const, _depth - 1)
        return None


def build_project(files: Iterable[Union[str, Path]]) -> ProjectContext:
    """Build the symbol table for a lint run from files on disk.

    Unparseable files are skipped here — the per-file lint pass
    reports them as errors.
    """
    project = ProjectContext()
    for f in files:
        project.add_file(str(f))
    return project
