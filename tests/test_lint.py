"""repro-lint: engine semantics, per-rule fixtures, and ship-cleanliness.

Every rule gets three fixture files under ``tests/lint_fixtures/``:
a positive (the violation fires), a negative (the clean idiom does not),
and a suppressed one (an inline ``repro-lint: disable`` with a reason
silences it).  The fixtures for scoped rules live under a fake
``repro/<dir>/`` tree so the path-scope checks exercise for real.

The last test is the ship gate: the actual ``src/repro`` package must
lint clean -- the same check CI runs via ``repro lint src/``.
"""

import os

import pytest

import repro
from repro.analysis.lint import (
    Violation,
    default_rules,
    format_violations,
    lint_file,
    run_lint,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")
SRC_REPRO = os.path.dirname(os.path.abspath(repro.__file__))


def lint_fixture(relpath):
    return lint_file(os.path.join(FIXTURES, relpath), default_rules())


def ids(violations):
    return [v.rule_id for v in violations]


# --------------------------------------------------------------------- #
# engine semantics
# --------------------------------------------------------------------- #
def test_violation_render_format():
    v = Violation("R1", "a/b.py", 3, 7, "bad draw", "seed it")
    assert v.render() == "a/b.py:3:7: R1 bad draw  [fix: seed it]"


def test_trailing_suppression_shields_own_line():
    src = "import pickle\n\nx = pickle.loads(b'')  # repro-lint: disable=R7 -- test\n"
    assert lint_file("anything.py", default_rules(), source=src) == []


def test_comment_only_suppression_shields_next_line():
    src = (
        "import pickle\n"
        "# repro-lint: disable=R7 -- shields the line below\n"
        "x = pickle.loads(b'')\n"
    )
    assert lint_file("anything.py", default_rules(), source=src) == []


def test_suppression_is_per_rule_and_per_line():
    # A R7 suppression does not silence other rules on the same line,
    # and does not reach any other line.
    src = (
        "import pickle\n"
        "a = pickle.loads(b'')  # repro-lint: disable=R1 -- wrong rule id\n"
        "b = pickle.loads(b'')\n"
    )
    got = lint_file("anything.py", default_rules(), source=src)
    assert ids(got) == ["R7", "R7"]


def test_multi_rule_suppression():
    src = (
        "import pickle\n"
        "import numpy as np\n"
        "x = pickle.loads(np.random.rand(1).tobytes())"
        "  # repro-lint: disable=R1,R7 -- both at once\n"
    )
    assert lint_file("anything.py", default_rules(), source=src) == []


def test_reasonless_suppression_reports_r0_but_still_suppresses():
    got = lint_fixture("r0_noreason.py")
    assert ids(got) == ["R0"]  # R7 swallowed, R0 reported in its place
    assert "reason" in got[0].message


def test_syntax_error_reports_e1():
    got = lint_fixture("e1_syntax.py")
    assert ids(got) == ["E1"]
    assert "syntax error" in got[0].message


def test_test_files_are_exempt_from_r1():
    src = "import numpy as np\nx = np.random.rand(3)\n"
    assert lint_file("tests/test_whatever.py", default_rules(),
                     source=src) == []
    assert ids(lint_file("tools/helper.py", default_rules(),
                         source=src)) == ["R1"]


def test_run_lint_walks_trees_and_counts_files():
    violations, nfiles = run_lint([FIXTURES])
    assert nfiles == len(
        [f for root, _, files in os.walk(FIXTURES)
         for f in files if f.endswith(".py")]
    )
    assert violations  # the positive fixtures fire

    text = format_violations(violations, nfiles)
    assert f"{len(violations)} violation(s) in {nfiles} file(s)" in text

    clean = format_violations([], 3)
    assert clean == "clean: 3 file(s), 0 violations"


# --------------------------------------------------------------------- #
# per-rule fixtures: positive / negative / suppressed
# --------------------------------------------------------------------- #
def test_r1_unseeded_randomness():
    got = lint_fixture("r1_bad.py")
    assert ids(got) == ["R1", "R1"]
    assert "np.random.rand" in got[0].message
    assert "OS entropy" in got[1].message
    assert lint_fixture("r1_ok.py") == []
    assert lint_fixture("r1_suppressed.py") == []


def test_r2_unordered_iteration():
    got = lint_fixture("repro/comm/r2_bad.py")
    assert ids(got) == ["R2", "R2", "R2"]
    assert all("salted order" in v.message for v in got)
    assert lint_fixture("repro/comm/r2_ok.py") == []
    assert lint_fixture("repro/comm/r2_suppressed.py") == []


def test_r2_is_scoped_to_ordered_hot_paths():
    src = "def f(xs):\n    return [x for x in set(xs)]\n"
    assert ids(lint_file("repro/comm/util.py", default_rules(),
                         source=src)) == ["R2"]
    # analysis/ is out of scope: iteration order there is cosmetic
    assert lint_file("repro/analysis/util.py", default_rules(),
                     source=src) == []


def test_r4_unguarded_instrumentation():
    got = lint_fixture("r4_bad.py")
    assert ids(got) == ["R4", "R4"]
    assert lint_fixture("r4_ok.py") == []
    assert lint_fixture("r4_suppressed.py") == []


def test_r5_wall_clock():
    assert ids(lint_fixture("repro/comm/r5_bad.py")) == ["R5"]
    assert ids(lint_fixture("repro/comm/r5_from_import.py")) == ["R5"]
    assert lint_fixture("repro/comm/r5_ok.py") == []
    assert lint_fixture("repro/comm/r5_suppressed.py") == []


def test_r7_pickle_loads():
    got = lint_fixture("r7_bad.py")
    assert ids(got) == ["R7"]
    assert lint_fixture("repro/parallel/tcp.py") == []  # sanctioned site
    assert lint_fixture("r7_suppressed.py") == []


def test_r8_broad_except():
    got = lint_fixture("repro/parallel/r8_bad.py")
    assert ids(got) == ["R8", "R8"]
    assert lint_fixture("repro/parallel/r8_ok.py") == []
    assert lint_fixture("repro/parallel/r8_suppressed.py") == []


# --------------------------------------------------------------------- #
# the ship gate
# --------------------------------------------------------------------- #
def test_src_repro_lints_clean():
    violations, nfiles = run_lint([SRC_REPRO])
    rendered = "\n".join(v.render() for v in violations)
    assert not violations, f"repro package has lint violations:\n{rendered}"
    assert nfiles > 50  # the walk really covered the package


def test_cli_lint_exit_codes(capsys):
    from repro.cli import main

    assert main(["lint", SRC_REPRO]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out

    assert main(["lint", os.path.join(FIXTURES, "r1_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "R1" in out

    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rid in ("R1", "R4", "R8"):
        assert rid in out
    assert "R3" not in out and "R6" not in out  # retired; IDs stay stable
