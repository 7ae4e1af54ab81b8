"""The typed core: annotation coverage.

An ``ast``-based check: every public function/method in the typed-core
modules (``sparse/``, ``comm/``, ``dist/base.py`` and the modules split
out of it, ``parallel/runtime.py``) must annotate all of its parameters
and its return type.  (A ``mypy`` pass over the same modules used to sit
beside it; no development host ever had mypy, so it was a check nobody
could reproduce, and it went at ISSUE 24.)
"""

from __future__ import annotations

import ast
import os

import repro

SRC_REPRO = os.path.dirname(os.path.abspath(repro.__file__))
SRC = os.path.dirname(SRC_REPRO)

#: The typed core.
TYPED_TARGETS = [
    os.path.join(SRC_REPRO, "sparse"),
    os.path.join(SRC_REPRO, "comm"),
    os.path.join(SRC_REPRO, "dist", "base.py"),
    os.path.join(SRC_REPRO, "dist", "history.py"),
    os.path.join(SRC_REPRO, "dist", "blockrow.py"),
    os.path.join(SRC_REPRO, "dist", "grid.py"),
    os.path.join(SRC_REPRO, "parallel", "runtime.py"),
]


def _py_files(target):
    if target.endswith(".py"):
        yield target
        return
    for root, _, files in os.walk(target):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def _public_defs(tree):
    """(qualname, node) for module-level defs and class methods that are
    part of the public API (dunders other than __init__ excluded)."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not stmt.name.startswith("_"):
                yield stmt.name, stmt
        elif isinstance(stmt, ast.ClassDef) and \
                not stmt.name.startswith("_"):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and (not sub.name.startswith("_")
                             or sub.name == "__init__"):
                    yield f"{stmt.name}.{sub.name}", sub


def _unannotated(func):
    args = func.args
    params = (args.posonlyargs + args.args + args.kwonlyargs
              + ([args.vararg] if args.vararg else [])
              + ([args.kwarg] if args.kwarg else []))
    missing = [a.arg for a in params
               if a.arg not in ("self", "cls") and a.annotation is None]
    if func.returns is None and func.name != "__init__":
        missing.append("<return>")
    return missing


def test_typed_core_annotation_coverage():
    gaps = []
    for target in TYPED_TARGETS:
        for path in _py_files(target):
            with open(path, "r", encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            for qualname, func in _public_defs(tree):
                missing = _unannotated(func)
                if missing:
                    rel = os.path.relpath(path, SRC)
                    gaps.append(
                        f"{rel}:{func.lineno} {qualname}: "
                        f"missing {', '.join(missing)}"
                    )
    assert not gaps, "unannotated public APIs in the typed core:\n" + \
        "\n".join(gaps)
