"""repro-lint: the AST-based invariant-checker engine.

The repo's correctness story rests on invariants that are easy to break
silently: deterministic iteration orders feeding reduction folds, ledger
charges paired with their data-plane moves, the ``is None`` zero-cost-off
guard on every instrumentation site, monotonic clocks in anything that
feeds a ledger digest.  ``repro lint`` turns those conventions into
machine-checked rules (:mod:`repro.analysis.lint.rules`) so the pattern
*cannot merge*, instead of hoping a test happens to cover it.

The engine is deliberately small and dependency-free (stdlib ``ast``
only): it walks ``.py`` files, parses each once, hands a
:class:`LintContext` to every rule, and filters the resulting
:class:`Violation` stream through inline suppressions.

Suppression syntax::

    risky_call()  # repro-lint: disable=R2 -- inbox order is observational

A suppression must carry a reason after ``--``; a reasonless
``disable=`` is itself reported (rule ``R0``).  A suppression comment on
its own line applies to the next line; a trailing comment applies to its
own line.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "LintContext",
    "Rule",
    "Violation",
    "format_violations",
    "lint_file",
    "run_lint",
]

#: Matches ``disable=R1`` / ``disable=R1,R4 -- reason`` after the
#: repro-lint marker (worded to not match its own source line).
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<ids>[A-Z][0-9]+(?:\s*,\s*[A-Z][0-9]+)*)"
    r"(?:\s*--\s*(?P<reason>\S.*))?"
)


@dataclass(frozen=True)
class Violation:
    """One rule hit: where, which rule, what to do about it."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    fixit: str = ""

    def render(self) -> str:
        out = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.fixit:
            out += f"  [fix: {self.fixit}]"
        return out


@dataclass(frozen=True)
class _Suppression:
    line: int
    rule_ids: Tuple[str, ...]
    reason: Optional[str]


class LintContext:
    """Everything a rule needs about one source file.

    ``pkgpath`` is the path relative to the directory *containing* the
    ``repro`` package when the file lives inside it (so scope checks like
    "is this under ``repro/comm/``" are stable no matter where the tree
    is checked out); otherwise it falls back to the path as given.
    """

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        norm = path.replace(os.sep, "/")
        self.pkgpath = norm
        idx = norm.rfind("/repro/")
        if idx >= 0:
            self.pkgpath = norm[idx + 1:]
        base = os.path.basename(norm)
        self.is_test = base.startswith("test_") or base == "conftest.py"
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    def in_dirs(self, *dirs: str) -> bool:
        """True when the file lives under ``repro/<d>/`` for any ``d``."""
        return any(self.pkgpath.startswith(f"repro/{d}/") for d in dirs)

    def parent_map(self) -> Dict[ast.AST, ast.AST]:
        """Child -> parent links for the whole tree (built lazily once)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def enclosing_function(self, node: ast.AST) -> Optional[str]:
        """Name of the nearest enclosing def, or ``None`` at module level."""
        parents = self.parent_map()
        cur: Optional[ast.AST] = node
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return cur.name
            cur = parents.get(cur)
        return None


class Rule:
    """Base class: one invariant, one ID, one fix-it message."""

    id: str = "R?"
    title: str = ""
    fixit: str = ""

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        raise NotImplementedError

    def hit(self, ctx: LintContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule_id=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            fixit=self.fixit,
        )


def _parse_suppressions(lines: Sequence[str]) -> List[_Suppression]:
    out: List[_Suppression] = []
    for i, line in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(line)
        if m is None:
            continue
        ids = tuple(p.strip() for p in m.group("ids").split(","))
        reason = m.group("reason")
        # A comment-only line shields the *next* line (flake8's noqa
        # idiom is trailing-only; block suppressions read better for
        # multi-clause statements).
        target = i + 1 if line.lstrip().startswith("#") else i
        out.append(_Suppression(line=target, rule_ids=ids, reason=reason))
    return out


def lint_file(
    path: str,
    rules: Sequence[Rule],
    source: Optional[str] = None,
) -> List[Violation]:
    """Run ``rules`` over one file; returns unsuppressed violations.

    Reasonless suppressions are reported as rule ``R0`` (the suppression
    still takes effect for its target rule -- one finding per problem).
    Syntax errors are reported as rule ``E1`` rather than raised, so one
    unparsable file cannot hide the rest of the tree.
    """
    if source is None:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation("E1", path, exc.lineno or 1, (exc.offset or 0) + 1,
                          f"syntax error: {exc.msg}")]
    ctx = LintContext(path, source, tree)
    raw: List[Violation] = []
    for rule in rules:
        raw.extend(rule.check(ctx))
    sups = _parse_suppressions(ctx.lines)
    by_line: Dict[int, Set[str]] = {}
    out: List[Violation] = []
    for s in sups:
        by_line.setdefault(s.line, set()).update(s.rule_ids)
        if s.reason is None:
            out.append(Violation(
                "R0", path, s.line, 1,
                "suppression without a reason",
                "append ' -- <why this is safe>' to the disable comment",
            ))
    for v in raw:
        if v.rule_id in by_line.get(v.line, ()):
            continue
        out.append(v)
    out.sort(key=lambda v: (v.line, v.col, v.rule_id))
    return out


def _iter_py_files(paths: Iterable[str]) -> Iterator[str]:
    for p in paths:
        if os.path.isdir(p):
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in ("__pycache__", ".git")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        yield os.path.join(dirpath, name)
        elif p.endswith(".py"):
            yield p


def run_lint(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[List[Violation], int]:
    """Lint files/trees; returns ``(violations, files_checked)``."""
    if rules is None:
        from repro.analysis.lint.rules import default_rules

        rules = default_rules()
    violations: List[Violation] = []
    nfiles = 0
    for path in _iter_py_files(paths):
        nfiles += 1
        violations.extend(lint_file(path, rules))
    return violations, nfiles


def format_violations(violations: Sequence[Violation], nfiles: int) -> str:
    lines = [v.render() for v in violations]
    tail = (f"{len(violations)} violation(s) in {nfiles} file(s)"
            if violations else f"clean: {nfiles} file(s), 0 violations")
    lines.append(tail)
    return "\n".join(lines)
