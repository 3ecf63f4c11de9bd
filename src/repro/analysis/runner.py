"""Linter driver: file discovery, rule dispatch, noqa suppression.

The driver is deliberately dependency-free (stdlib ``ast`` +
``tokenize``) so the gate runs anywhere the package imports — CI,
pre-commit, or a contributor's bare virtualenv — with no tooling to
install.

Two pieces of machinery live here rather than in a rule class:

- **Suppression bookkeeping.**  Comments are located with
  ``tokenize`` (never by regex over raw lines, which would trip on
  noqa examples inside string literals) and a suppression must be
  *anchored* at the start of its comment.  Every application is
  recorded, which is what makes stale-suppression detection (R000)
  possible: a ``# repro: noqa`` that suppressed nothing in a run where
  all rules fired is dead weight and gets reported.
- **The project pass.**  :func:`lint_paths` builds one
  :class:`~repro.analysis.symbols.ProjectContext` over every file in
  the run before any rule executes, so the interprocedural rules
  (R006, R007) can resolve kernel references across files.  The
  per-file pass reuses the tree the project pass parsed, so each file
  is parsed once.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.symbols import ProjectContext, build_project

__all__ = ["Finding", "FileContext", "lint_source", "lint_file", "lint_paths"]

#: Line-level suppression, anchored at the start of a comment token:
#: ``# repro: noqa`` (blanket) or ``# repro: noqa(R001)`` /
#: ``# repro: noqa(R001, R003)`` (targeted).
_NOQA_RE = re.compile(r"^#\s*repro:\s*noqa(?:\(\s*([R0-9,\s]*)\))?", re.IGNORECASE)

#: Directories never walked: the fixture corpus *must* contain
#: violations (it proves each rule fires), so it is linted only
#: explicitly by the test suite via :func:`lint_file`.
_SKIP_DIR_PARTS = frozenset({"fixtures", "__pycache__", ".git", ".hypothesis"})

_R000_CODE = "R000"
_R000_SUMMARY = "unused '# repro: noqa' suppression matches no finding"
_R000_HINT = "delete the stale suppression comment"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str
    severity: str = "error"

    @property
    def sort_key(self) -> Tuple[str, int, int, str, str]:
        """Deterministic report order: (path, line, col, code, message)."""
        return (self.path, self.line, self.col, self.code, self.message)

    def format(self) -> str:
        """Render in the conventional ``path:line:col: CODE msg`` shape."""
        sev = "" if self.severity == "error" else f" [{self.severity}]"
        return (
            f"{self.path}:{self.line}:{self.col}: {self.code}{sev} "
            f"{self.message}  [fix: {self.hint}]"
        )


@dataclass
class FileContext:
    """Everything a rule needs to know about one source file."""

    path: str
    source: str
    tree: ast.AST
    lines: List[str]
    #: Path of the file relative to the ``repro`` package root, e.g.
    #: ``core/kernels.py``; ``None`` when the file is outside it.
    repro_rel: Optional[str]
    #: True when the file lives under a ``tests/`` directory.
    in_tests: bool
    #: Child -> parent links for every AST node (``ast`` has none).
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)
    #: Comment tokens by line: ``line -> (col, text)``.
    comments: Dict[int, Tuple[int, str]] = field(default_factory=dict)
    #: The run-wide symbol table (attached by the lint entry points).
    project: Optional[ProjectContext] = None

    @classmethod
    def parse(
        cls, path: str, source: str, tree: Optional[ast.AST] = None
    ) -> "FileContext":
        """Index ``source``; ``tree`` is its AST when already parsed."""
        if tree is None:
            tree = ast.parse(source, filename=path)
        parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        comments: Dict[int, Tuple[int, str]] = {}
        try:
            for tok in tokenize.generate_tokens(io.StringIO(source).readline):
                if tok.type == tokenize.COMMENT:
                    comments[tok.start[0]] = (tok.start[1], tok.string)
        except (tokenize.TokenError, IndentationError, SyntaxError):
            pass  # the ast parse above already vouched for the file
        parts = Path(path).parts
        repro_rel: Optional[str] = None
        if "repro" in parts:
            idx = len(parts) - 1 - tuple(reversed(parts)).index("repro")
            tail = parts[idx + 1 :]
            if tail:
                repro_rel = "/".join(tail)
        return cls(
            path=path,
            source=source,
            tree=tree,
            lines=source.splitlines(),
            repro_rel=repro_rel,
            in_tests="tests" in parts,
            parents=parents,
            comments=comments,
        )

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)


def _suppressed_codes(comment: str) -> Optional[Set[str]]:
    """Codes suppressed by this comment token.

    Returns ``None`` when the comment is not a suppression, an empty
    set for a blanket ``# repro: noqa``, and a set of codes for the
    targeted form.  The pattern must be anchored at the start of the
    comment, so prose *about* noqa comments never suppresses anything.
    """
    m = _NOQA_RE.match(comment)
    if m is None:
        return None
    raw = m.group(1)
    if raw is None:
        return set()
    return {c.strip().upper() for c in raw.split(",") if c.strip()}


def _apply_noqa(
    findings: Iterable[Finding], ctx: FileContext
) -> Tuple[List[Finding], Set[int]]:
    """Drop suppressed findings; return survivors plus the set of
    comment lines whose suppression actually fired (for R000)."""
    kept: List[Finding] = []
    used: Set[int] = set()
    for f in findings:
        entry = ctx.comments.get(f.line)
        codes = _suppressed_codes(entry[1]) if entry is not None else None
        if codes is None:
            kept.append(f)
        elif codes and f.code.upper() not in codes:
            kept.append(f)
        else:
            # blanket noqa (empty set) or matching code: suppressed
            used.add(f.line)
    return kept, used


def _stale_findings(ctx: FileContext, used: Set[int]) -> List[Finding]:
    """R000: every anchored noqa comment that suppressed nothing."""
    out: List[Finding] = []
    for line in sorted(ctx.comments):
        col, text = ctx.comments[line]
        m = _NOQA_RE.match(text)
        if m is None or line in used:
            continue
        out.append(
            Finding(
                path=ctx.path,
                line=line,
                col=col + 1,
                code=_R000_CODE,
                message=f"suppression {m.group(0)!r} matches no finding",
                hint=_R000_HINT,
                severity="warning",
            )
        )
    return out


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Set[str]] = None,
    respect_scope: bool = True,
    project: Optional[ProjectContext] = None,
) -> List[Finding]:
    """Lint one source string and return surviving findings.

    ``select`` restricts to a set of rule codes; ``respect_scope=False``
    runs every selected rule regardless of the file's location (the
    fixture-corpus tests use this so fixtures can live under
    ``tests/`` while exercising src-only rules).  ``project`` is the
    run-wide symbol table; a single-file table is built when omitted,
    and a file the table already holds is not parsed again.  R000 runs
    unless a narrowed ``select`` leaves it out, since unused
    suppressions cannot be told apart from suppressions of unselected
    rules.
    """
    from repro.analysis.rules import ALL_RULES

    if project is None:
        project = ProjectContext()
    mi = project.module_for_path(path)
    ctx = FileContext.parse(path, source, tree=mi.tree if mi else None)
    if mi is None and isinstance(ctx.tree, ast.Module):
        project.add_source(path, source, tree=ctx.tree)
    ctx.project = project

    want_stale = select is None or _R000_CODE in select
    raw: List[Finding] = []
    for rule in ALL_RULES:
        # staleness needs the full raw finding set, so a select that
        # includes R000 still *runs* every rule and filters emissions
        if not want_stale and select is not None and rule.code not in select:
            continue
        if respect_scope and not rule.applies(ctx):
            continue
        raw.extend(rule.check(ctx))
    raw.sort(key=lambda f: f.sort_key)
    kept, used = _apply_noqa(raw, ctx)
    if want_stale:
        kept.extend(_stale_findings(ctx, used))
    if select is not None:
        kept = [f for f in kept if f.code in select]
    kept.sort(key=lambda f: f.sort_key)
    return kept


def lint_file(
    path: str,
    select: Optional[Set[str]] = None,
    respect_scope: bool = True,
    project: Optional[ProjectContext] = None,
) -> List[Finding]:
    """Lint one file on disk (see :func:`lint_source`)."""
    source = Path(path).read_text(encoding="utf-8")
    return lint_source(
        source,
        path=str(path),
        select=select,
        respect_scope=respect_scope,
        project=project,
    )


def _iter_python_files(root: Path) -> Iterator[Path]:
    if root.is_file():
        if root.suffix == ".py":
            yield root
        return
    for p in sorted(root.rglob("*.py")):
        if _SKIP_DIR_PARTS.intersection(p.parts):
            continue
        yield p


def _discover(paths: Sequence[str]) -> Tuple[List[Path], List[str]]:
    files: List[Path] = []
    errors: List[str] = []
    for raw in paths:
        root = Path(raw)
        if not root.exists():
            errors.append(f"{raw}: no such file or directory")
            continue
        files.extend(_iter_python_files(root))
    return files, errors


def lint_paths(
    paths: Sequence[str],
    select: Optional[Set[str]] = None,
) -> Tuple[List[Finding], List[str]]:
    """Lint every ``.py`` file under ``paths``.

    Returns ``(findings, errors)`` where ``errors`` are missing paths
    and files that failed to read or parse (reported, never silently
    skipped).  Findings are globally sorted by :attr:`Finding.sort_key`.
    """
    files, errors = _discover(paths)
    project = build_project(files)
    findings: List[Finding] = []
    for p in files:
        try:
            findings.extend(lint_file(str(p), select=select, project=project))
        except SyntaxError as exc:
            errors.append(f"{p}: syntax error: {exc.msg} (line {exc.lineno})")
        except (OSError, UnicodeDecodeError) as exc:
            errors.append(f"{p}: unreadable: {exc}")
    findings.sort(key=lambda f: f.sort_key)
    return findings, sorted(errors)
