"""The check-family primitive of CheckReport."""

import ast
from pathlib import Path

from weakmaps.report import CheckReport

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "weakmaps"


def test_family_counts_items_and_failures():
    rep = CheckReport()
    fam = rep.family("law")
    for x in range(5):
        fam.check(x % 2 == 0, f"x={x}", x, 0)
    assert (fam.n, fam.failed) == (5, 2)
    assert fam.close(f"{fam.n} items") is False


def test_family_itemises_failures_then_aggregates():
    rep = CheckReport()
    fam = rep.family("law")
    assert fam.check(True, "x=0", 0, 0)
    assert not fam.check(False, "x=1", 1, 0)
    assert not fam.check(False, "x=2", 2, 0, name="law.part")
    fam.close(f"{fam.n} items")
    assert rep.lines() == [
        "EQ law @ x=1 : FAIL(lhs=1, rhs=0)",
        "EQ law.part @ x=2 : FAIL(lhs=2, rhs=0)",
        "EQ law @ 3 items : FAIL(lhs=2 failing, rhs=0)",
    ]
    assert rep.summary_line() == "SUMMARY: checks=3 pass=0 fail=3 exempt=0"


def test_passing_family_is_one_pass_line():
    rep = CheckReport()
    fam = rep.family("law")
    for x in range(3):
        fam.check(True, f"x={x}", x, x)
    assert fam.close(f"{fam.n} items")
    assert rep.lines() == ["EQ law @ 3 items : PASS"]


def test_subject_callable_only_runs_for_a_failing_item():
    calls = []

    def subject():
        calls.append(1)
        return "the item"

    rep = CheckReport()
    fam = rep.family("law")
    for _ in range(4):
        fam.check(True, subject, "x", "x")
    assert calls == []
    fam.check(False, subject, "x", "y")
    assert calls == [1]
    assert rep.lines() == ["EQ law @ the item : FAIL(lhs=x, rhs=y)"]


def test_empty_family_passes():
    rep = CheckReport()
    fam = rep.family("law")
    assert fam.close("nothing") and rep.lines() == ["EQ law @ nothing : PASS"]


def test_family_json_keeps_both_sides():
    rep = CheckReport()
    fam = rep.family("law")
    fam.check(False, "x=1", 1, 0)
    fam.close("1 item")
    assert rep.to_json()["checks"] == [
        {"name": "law", "subject": "x=1", "status": "FAIL", "lhs": "1", "rhs": "0"},
        {"name": "law", "subject": "1 item", "status": "FAIL",
         "lhs": "1 failing", "rhs": "0"},
    ]
    assert rep.to_json()["ok"] is False


def _gives_both_sides(call: ast.Call) -> bool:
    if any(isinstance(a, ast.Starred) and isinstance(a.value, ast.Call)
           and getattr(a.value.func, "id", None) == "chain_sides"
           for a in call.args):
        return True
    keywords = {k.arg for k in call.keywords} & {"lhs", "rhs"}
    return max(len(call.args) - 3, 0) + len(keywords) == 2


def test_every_record_call_gives_both_sides():
    """A FAIL line reads FAIL(lhs=.., rhs=..); a record() call without
    sides would fail as FAIL(lhs=, rhs=), which shows nothing."""
    bare = [f"{path.name}:{node.lineno}"
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "report.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "record" and not _gives_both_sides(node)]
    assert not bare, "record() without lhs and rhs at " + ", ".join(bare)
