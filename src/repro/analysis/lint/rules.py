"""The repro-lint rule set: the repo's invariants as AST checks.

Every rule encodes one determinism or accounting invariant of the
reproduction (see the module docstrings it polices):

==== =====================================================================
R1   no unseeded randomness outside tests
R2   no iteration over ``set()``/``dict.keys()`` in comm/dist/parallel
R4   instrumentation sites must use the ``is None`` zero-cost-off guard
R5   no wall-clock (``time.time``) in ledger/digest-feeding code
R7   no ``pickle.loads`` outside the framed TCP receive path
R8   no broad ``except Exception``/bare ``except`` in ``parallel/``
==== =====================================================================

Rules are pure functions of one file's AST; the engine handles
suppressions.  IDs are stable: R3 (charge / data-plane pairing in
``dist/``) was retired when each collective became one definition in
:mod:`repro.comm.collectives` and ``dist/`` stopped holding a charge
list to pair, and R6 (lazy-export tables match module contents) when
``tests/test_lazy_exports.py`` started resolving every ``_EXPORTS``
entry and every ``__all__`` name at test time.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.lint.engine import LintContext, Rule, Violation

__all__ = ["default_rules", "ALL_RULES"]


def _attr_chain(node: ast.AST) -> Optional[str]:
    """Dotted name for ``a.b.c`` expressions (``None`` when not a chain)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# --------------------------------------------------------------------- #
# R1: determinism starts at the seed
# --------------------------------------------------------------------- #
class UnseededRandomness(Rule):
    """Legacy ``np.random.*`` draws share hidden global state; a bare
    ``default_rng()``/``RandomState()`` seeds from the OS.  Either way
    two runs diverge, and every loss/ledger bit-equality oracle in the
    repo dies.  Test modules are exempt (they may fuzz)."""

    id = "R1"
    title = "no unseeded randomness outside tests"
    fixit = "use np.random.default_rng(seed) and pass the Generator down"

    #: module-level legacy draws (global hidden state, unseedable per-call)
    LEGACY = {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "normal", "uniform",
        "standard_normal", "binomial", "poisson", "exponential", "bytes",
    }

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if ctx.is_test:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if chain is None:
                continue
            head, _, fn = chain.rpartition(".")
            if head in ("np.random", "numpy.random") and fn in self.LEGACY:
                yield self.hit(
                    ctx, node,
                    f"legacy global-state draw '{chain}()'",
                )
            elif (fn in ("default_rng", "RandomState")
                  and head in ("", "np.random", "numpy.random")
                  and not node.args and not node.keywords):
                yield self.hit(
                    ctx, node,
                    f"'{chain}()' without a seed draws OS entropy",
                )


# --------------------------------------------------------------------- #
# R2: iteration order feeds fold order
# --------------------------------------------------------------------- #
class UnorderedIteration(Rule):
    """In ``comm/``, ``dist/``, and ``parallel/`` the iteration order of
    a loop can become a reduction fold order or an exchange schedule;
    ``set`` iteration order is salted per-process, so such a loop is a
    cross-run (and cross-worker) nondeterminism bomb."""

    id = "R2"
    title = "no set/dict.keys() iteration in ordered hot paths"
    fixit = "iterate sorted(...) or a list with a fixed construction order"

    def _set_valued(self, node: ast.AST) -> Optional[str]:
        """Describe why ``node`` has salted iteration order, or None."""
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and \
                    node.func.id in ("set", "frozenset"):
                return f"{node.func.id}(...)"
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "keys" and \
                    not isinstance(node.func.value, ast.Dict):
                return ".keys() of a non-literal receiver"
        if isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return self._set_valued(node.left) or self._set_valued(node.right)
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Set):
            return "a set literal"
        return None

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if not ctx.in_dirs("comm", "dist", "parallel"):
            return
        for node in ast.walk(ctx.tree):
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                iters.extend(g.iter for g in node.generators)
            for it in iters:
                why = self._set_valued(it)
                if why is not None:
                    yield self.hit(
                        ctx, it, f"iteration over {why} has salted order",
                    )


# --------------------------------------------------------------------- #
# R4: instrumentation must be zero-cost when off
# --------------------------------------------------------------------- #
class UnguardedInstrumentation(Rule):
    """Every obs hook follows one idiom: read the module
    global once (``rec = _spans.ACTIVE``), test ``is None``, and only
    touch the recorder behind that guard.  An unconditional recorder
    call crashes every untraced run (``None`` has no ``record``) -- or
    worse, quietly adds overhead to the hot path the ≤10% gate protects."""

    id = "R4"
    title = "instrumentation sites use the 'is None' guard idiom"
    fixit = ("bind x = <mod>.ACTIVE once, guard uses with "
             "'if x is not None' (or an early 'if x is None: return')")

    @staticmethod
    def _is_active_read(node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "ACTIVE") \
            or (isinstance(node, ast.Name) and node.id == "ACTIVE")

    @classmethod
    def _walk_local(cls, node: ast.AST) -> Iterator[ast.AST]:
        """Walk a function body without crossing into nested defs (a
        nested closure has its own recorder binding and guard scope)."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            yield child
            yield from cls._walk_local(child)

    @staticmethod
    def _none_test(test: ast.AST) -> Optional[Tuple[str, bool]]:
        """Match ``<name> is None`` / ``<name> is not None``; returns
        ``(name, is_none)``."""
        if isinstance(test, ast.Compare) and len(test.ops) == 1 and \
                isinstance(test.left, ast.Name) and \
                isinstance(test.comparators[0], ast.Constant) and \
                test.comparators[0].value is None:
            if isinstance(test.ops[0], ast.Is):
                return test.left.id, True
            if isinstance(test.ops[0], ast.IsNot):
                return test.left.id, False
        return None

    @classmethod
    def _terminates(cls, body: Sequence[ast.stmt]) -> bool:
        return bool(body) and isinstance(
            body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))

    def _guarded(self, use: ast.Name, var: str, func: ast.AST,
                 parents: Dict[ast.AST, ast.AST]) -> bool:
        """Is this use of ``var`` dominated by a non-None narrowing?"""
        node: ast.AST = use
        while node is not func:
            parent = parents.get(node)
            if parent is None:
                return False
            if isinstance(parent, ast.If):
                t = self._none_test(parent.test)
                if t is not None and t[0] == var:
                    _, is_none = t
                    if node in parent.body and not is_none:
                        return True
                    if node in parent.orelse and is_none:
                        return True
            elif isinstance(parent, ast.IfExp):
                t = self._none_test(parent.test)
                if t is not None and t[0] == var:
                    _, is_none = t
                    if node is parent.body and not is_none:
                        return True
                    if node is parent.orelse and is_none:
                        return True
            elif isinstance(parent, ast.BoolOp) and \
                    isinstance(parent.op, ast.And):
                # `var is not None and <use of var>`
                idx = parent.values.index(node) if node in parent.values else -1
                for earlier in parent.values[:max(idx, 0)]:
                    t = self._none_test(earlier)
                    if t == (var, False):
                        return True
            # Early-exit guard: an earlier sibling `if var is None:
            # return/raise/...` in any enclosing statement list.
            for blk in ("body", "orelse", "finalbody"):
                stmts = getattr(parent, blk, None)
                if not isinstance(stmts, list) or node not in stmts:
                    continue
                for earlier in stmts[:stmts.index(node)]:
                    if isinstance(earlier, ast.If) and \
                            self._none_test(earlier.test) == (var, True) and \
                            self._terminates(earlier.body):
                        return True
            node = parent
        return False

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        parents = ctx.parent_map()
        for node in ast.walk(ctx.tree):
            # Direct chained use: `_spans.ACTIVE.record(...)` -- never
            # legal, there is no guard that can make the chain cheap.
            if isinstance(node, ast.Attribute) and \
                    self._is_active_read(node.value) and \
                    isinstance(parents.get(node), ast.Call) and \
                    parents[node].func is node:
                yield self.hit(
                    ctx, node,
                    f"unconditional call through "
                    f"'{_attr_chain(node) or 'ACTIVE'}'",
                )
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # Recorder vars: `x = <mod>.ACTIVE` (or bare `x = ACTIVE`).
            tracked: Dict[str, ast.AST] = {}
            for sub in self._walk_local(node):
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1 and \
                        isinstance(sub.targets[0], ast.Name) and \
                        self._is_active_read(sub.value):
                    tracked[sub.targets[0].id] = sub.value
            if not tracked:
                continue
            for sub in self._walk_local(node):
                if not (isinstance(sub, ast.Name) and
                        isinstance(sub.ctx, ast.Load) and
                        sub.id in tracked):
                    continue
                if tracked[sub.id] is sub:
                    continue  # the RHS of the binding itself
                parent = parents.get(sub)
                # `x is None` / `x is not None` tests are the guard.
                if isinstance(parent, ast.Compare) and \
                        self._none_test(parent) is not None:
                    continue
                if not self._guarded(sub, sub.id, node, parents):
                    yield self.hit(
                        ctx, sub,
                        f"use of recorder '{sub.id}' outside its "
                        "'is None' guard",
                    )


# --------------------------------------------------------------------- #
# R5: ledgers are monotonic
# --------------------------------------------------------------------- #
class WallClockInLedgerCode(Rule):
    """``time.time`` jumps under NTP slew; anything feeding the ledger,
    span recorder, or a digest must use the monotonic clock or two runs
    of the same program disagree.  ``obs/`` event timestamps (real-world
    log correlation) are the one sanctioned wall-clock consumer and are
    out of scope."""

    id = "R5"
    title = "no wall-clock in ledger/digest-feeding code"
    fixit = "use time.monotonic() or time.perf_counter()"

    SCOPE = ("comm", "dist", "parallel", "sparse", "nn")

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if not ctx.in_dirs(*self.SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr == "time" and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == "time":
                yield self.hit(ctx, node, "wall-clock 'time.time' reference")
            elif isinstance(node, ast.ImportFrom) and \
                    node.module == "time" and \
                    any(a.name == "time" for a in node.names):
                yield self.hit(ctx, node, "wall-clock 'from time import time'")


# --------------------------------------------------------------------- #
# R7: unpickling is an RCE primitive
# --------------------------------------------------------------------- #
class UnscopedPickleLoads(Rule):
    """``pickle.loads`` executes arbitrary bytecode from the buffer; the
    only sanctioned consumer is the framed TCP receive path
    (``TcpChannel._read_msg``), where frames come from cluster-internal
    peers the operator launched.  Anywhere else -- especially anywhere a
    frame could arrive unauthenticated -- is a new attack surface."""

    id = "R7"
    title = "no pickle.loads outside the framed TCP path"
    fixit = ("route frames through TcpChannel._read_msg, or use an "
             "explicit schema (json/struct) for new wire formats")

    ALLOWED = {("repro/parallel/tcp.py", "_read_msg")}

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and _attr_chain(node.func) == "pickle.loads"):
                continue
            where = (ctx.pkgpath, ctx.enclosing_function(node))
            if where in self.ALLOWED:
                continue
            yield self.hit(
                ctx, node,
                "'pickle.loads' outside the framed TCP receive path",
            )


# --------------------------------------------------------------------- #
# R8: catch what you can name
# --------------------------------------------------------------------- #
class BroadExcept(Rule):
    """PR 8 built a failure taxonomy (``WorkerDead``/``WorkerStalled``/
    ``TransportError``/``ChannelTimeout``) precisely so the recovery
    loop can tell a dead peer from a bug.  A broad ``except Exception``
    in ``parallel/`` swallows the distinction -- real defects get
    retried as if they were infrastructure flakes."""

    id = "R8"
    title = "no broad excepts in parallel/"
    fixit = "catch the narrowest taxonomy types that can actually occur"

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if not ctx.pkgpath.startswith("repro/parallel/"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.hit(ctx, node, "bare 'except:'")
            elif isinstance(node.type, ast.Name) and \
                    node.type.id in ("Exception", "BaseException"):
                yield self.hit(ctx, node, f"broad 'except {node.type.id}'")


ALL_RULES = (
    UnseededRandomness,
    UnorderedIteration,
    UnguardedInstrumentation,
    WallClockInLedgerCode,
    UnscopedPickleLoads,
    BroadExcept,
)


def default_rules() -> List[Rule]:
    """One instance of every rule, in ID order."""
    return [cls() for cls in ALL_RULES]
