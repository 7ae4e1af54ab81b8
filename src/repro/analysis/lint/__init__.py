"""repro-lint: AST rules that make the repo's invariants unmergeable.

See :mod:`repro.analysis.lint.engine` for the engine and suppression
syntax, :mod:`repro.analysis.lint.rules` for the rule set (R1, R2, R4,
R5, R7, R8).
"""

from repro.analysis.lint.engine import (
    LintContext,
    Rule,
    Violation,
    format_violations,
    lint_file,
    run_lint,
)
from repro.analysis.lint.rules import ALL_RULES, default_rules

__all__ = [
    "ALL_RULES",
    "LintContext",
    "Rule",
    "Violation",
    "default_rules",
    "format_violations",
    "lint_file",
    "run_lint",
]
