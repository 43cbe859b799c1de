"""Every statement in `src/` runs under some subcommand.

The runtime counterpart of `test_no_dead_code.py`: the collector runs
`cli.main` in-process under `sys.settrace` and records every line of
`src/` that runs.  The runs cover every subcommand and built-in algebra
on tiny lawful inputs, one instance file of each kind, and corrupted
files, so that the FAIL and refusal paths run too.

Two gates read the same lines:

* a definition (a `def` in `src/`, nested or not) counts as reached
  when any line of its body ran; one that did not fails the test unless
  `ORACLES` names it with the reason it may stay;
* a statement in a function body must run, be a `raise`, lie in an
  `ORACLES` function, or be named in `UNREACHED`, by its function, its
  stripped source text and its ordinal among the statements of that
  text in that function, with the reason it may stay.  An entry covers
  exactly one statement: an unreached twin of an exempt or a reached
  statement has an ordinal of its own, which no entry names.

An `ORACLES` or `UNREACHED` entry that runs, or no longer exists, fails
the test as well.
"""

import ast
import contextlib
import importlib.util
import inspect
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import weakmaps
from weakmaps.cli import main

from generators import CONE, SIDE_BROKEN_LALI

PACKAGE = Path(weakmaps.__file__).resolve().parent

SPAN_CATEGORY = ("weak maps as a category; runs only under unit tests until"
                 " ROADMAP item 10 checks composition in `weakmaps compare`")
ACCEPTANCE = ("acceptance guarantee 2, 7 or 8; runs only under"
              " tests/test_acceptance.py until ROADMAP item 10 records it"
              " in `awfs check` or `factor ulali`")
BROKEN_AWFS = ("failure path: only a custom AWFS or comonad that breaks"
               " its laws reaches it, and the CLI builds only lawful ones")

# dotted name -> why it stays in src/ although no subcommand runs it
ORACLES = {
    "awfs.validate_awfs.ill_typed": BROKEN_AWFS,
    "awfs.validate_awfs.refute": BROKEN_AWFS,
    "fincat.KleisliArrow.__repr__": BROKEN_AWFS,
    "fincat.Value.__repr__": BROKEN_AWFS,
    "awfs.validate_e_functoriality":
        "law E(h'h, k'k) = E(h',k') E(h,k); recording it in `awfs check`"
        " changes the awfs_laws report that perfbench/reference.json pins by"
        " md5, so it waits for a benchmark change that re-pins (ROADMAP item 1)",
    **dict.fromkeys([
        "spans.span_compose", "spans.identity_span",
        "fincat.CoKleisliCategory.identity", "fincat.CoKleisliCategory.dom",
        "fincat.CoKleisliCategory.cod", "fincat.CoKleisliCategory.compose",
        "fincat.CoKleisliCategory.cofree",
        "awfs.identity_algebra", "awfs.r_algebra_compose", "awfs.cartesian_lift",
        "fincat.FinSetCategory.pullback", "fincat.PullbackData.__init__",
        "fincat.PullbackData.mediate",
    ], SPAN_CATEGORY),
    **dict.fromkeys([
        "awfs.cofibrant_replacement.counit", "awfs.cofibrant_replacement.comult",
        "awfs.cofibrant_replacement.qarr", "fincat.FinSetCategory.initial",
        "awfs.replacement_comparison", "awfs.validate_comonad_iso",
        "bar.strict_to_weak", "bar.weak_to_strict",
        "bar.TruncatedCodescent.as_module",
        "awfs.RAlgebraArrow.validate", "awfs.LCoalgebraArrow.validate",
        "awfs.canonical_filler", "awfs.TAlgebra.validate",
        "awfs.TSplitMono.validate", "awfs.sketch_canonical_lift",
        "awfs.sketch_is_model_square", "awfs.sketch_is_model_lift",
    ], ACCEPTANCE),
}


# (dotted function, source text, ordinal among the statements of that text
# in that function, in source order) -> why that statement of a function
# that runs stays in src/ although no subcommand runs it
UNREACHED = {
    **dict.fromkeys([
        ("awfs.validate_awfs", "ill_typed(repr(f), e)", 0),
        # the stops after an ill-typed arrow (0) and after a square whose
        # sides do not compose (2); the one after a passing square runs
        ("awfs.validate_awfs", "continue", 0),
        ("awfs.validate_awfs", "continue", 2),
        ("awfs.validate_awfs", "for x, y in ((e, lf), (lg, h), (rg, e), (k, rf), (el, dl_f),", 0),
        ("awfs.validate_awfs", "cat.compose(x, y)", 0),
        # the failing square's; its twin on the new-entry path runs
        ("awfs.validate_awfs", "h, k = arrows_of(hk, f, g)", 1),
        ("awfs.validate_awfs", "e, el, er, *_, ends = es", 0),
        ("awfs.validate_awfs",
         "if ends and ends != joins:  # the first side that does not compose raises", 0),
        ("awfs.validate_awfs", "refute((h, k, f, g), (), err)", 0),
        ("awfs.validate_awfs", "refute((h, k, f, g), sides_of(h, k, fr, gr, es))", 0),
    ], BROKEN_AWFS),
    ("awfs.validate_awfs.eq",
     'rep.record(name, sub, False, "<ill-typed>", str(e))', 0): BROKEN_AWFS,
    ("fincat.validate_category",
     'rep.record("compose.endpoints", f"{g!r} . {f!r}", False,'
     " fmt_ends(cat.dom(gf), cat.cod(gf)), fmt_ends(a, c))", 0):
        "failure path: the category loader refuses a compose row with"
        " the wrong endpoints, and finite sets compose correctly",
    ("dg.HomologicalLali.validate", "return rep", 0):
        "failure path: the lali loader and the built-in fibration give"
        " g, q and xi their shapes, so only a hand-built lali reaches it",
    ("bar.TruncatedCodescent.validate", "return rep", 0):
        "failure path: only a defect in the codescent complex reaches it;"
        " input that breaks its laws stops at the law checks before",
    # the stop after the law checks, the same text, runs
    ("cli._run_bar_resolve", "return cfg, rep, []", 1):
        "failure path: the stop after a failing codescent validate, before"
        " bar_lali builds abar on A (x) |X|; only a defect in the codescent"
        " complex reaches it, as test_bar_resolve_reports_a_broken_codescent"
        "_complex shows",
    **dict.fromkeys([
        ("cli.main", 'print(f"input error: {e}", file=sys.stderr)', 0),
        ("cli.main", "return 2", 1),
    ], "failure path: an error raised while a run computes; the loaders"
       " refuse bad input as schema errors, an algebra whose unit is not"
       " a cycle gets alg.unit.chain FAIL lines, and a lali whose lift"
       " fails its side condition gets lift.reduced FAIL lines, so only a defect"
       " in the program reaches it (ROADMAP item 13)"),
    ("cli.main", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())", 0):
        "failure path: only a reader that closes stdout early reaches it;"
        " test_reader_closing_stdout_ends_the_run_quietly runs that in a"
        " subprocess, as it replaces the process's stdout",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def functions(path: Path) -> list:
    """(dotted name, node) of every `def` in `path`, nested or not."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((prefix + child.name, child))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), f"{path.stem}.")
    return found


def statements(node):
    """The statements of a function body, those inside its compound
    statements included, but not the bodies of nested defs and classes."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
            if not isinstance(child, DEFS):
                yield from statements(child)
        elif isinstance(child, (ast.excepthandler, ast.match_case)):
            yield from statements(child)


def source_text(source: str, stmt) -> str:
    """The stripped source text of `stmt`, whitespace collapsed; for a
    compound statement, its first line."""
    if hasattr(stmt, "body") or hasattr(stmt, "cases"):
        return source.splitlines()[stmt.lineno - 1].strip()
    return " ".join(ast.get_source_segment(source, stmt).split())


def _clear_caches(modules):
    """Empty every `functools.cache` of `modules` and of their classes,
    so that a body whose result an earlier test cached runs again."""
    for mod in modules:
        for obj in vars(mod).values():
            for m in vars(obj).values() if inspect.isclass(obj) else (obj,):
                clear = getattr(getattr(m, "__func__", m), "cache_clear", None)
                if callable(clear):
                    clear()


def lines_run(run, paths) -> set:
    """(resolved file, line) of every line of the files `paths` that ran
    while `run()` ran.  Frames of other files get no line tracer."""
    files = {str(Path(p).resolve()) for p in paths}
    ours, seen = {}, set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = str(Path(name).resolve()) in files
        return local if ours[name] else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {(str(Path(f).resolve()), line) for f, line in seen}


def unreached(run, paths, modules, oracles=()) -> tuple:
    """What of the files `paths` did not run while `run()` ran, after the
    caches of the imported files `modules` are emptied:

    * the sorted dotted names of the definitions no line of whose body
      ran;
    * the sorted (dotted function, `source_text`, ordinal) of the
      statements in function bodies none of whose lines ran, leaving out
      docstrings, `raise` statements and every statement of a function
      that `oracles` names or that is nested in one.  The ordinal counts
      the earlier statements of the same text in that function, run or
      not, so that twins are told apart.
    """
    _clear_caches(modules)
    ran = lines_run(run, paths)
    defs, stmts = [], []
    for p in paths:
        path = Path(p).resolve()
        source = path.read_text()
        for name, fn in functions(path):
            body = range(fn.body[0].lineno, fn.end_lineno + 1)
            if not any((str(path), n) in ran for n in body):
                defs.append(name)
            if any(name == o or name.startswith(o + ".") for o in oracles):
                continue
            doc = fn.body[0] if ast.get_docstring(fn) is not None else None
            twins = Counter()
            for s in statements(fn):
                text = source_text(source, s)
                twins[text] += 1
                if (s is not doc and not isinstance(s, ast.Raise)
                        and not any((str(path), n) in ran
                                    for n in range(s.lineno, s.end_lineno + 1))):
                    stmts.append((name, text, twins[text] - 1))
    return sorted(defs), sorted(stmts)


def stale(missing, exempt) -> tuple:
    """(the unreached items `exempt` does not name, the items of `exempt`
    that ran or are gone); a passing gate reads ([], [])."""
    return ([m for m in missing if m not in exempt],
            [e for e in exempt if e not in missing])


# --- the runs ---------------------------------------------------------------

# one object x, arrows 1x and e, e.e = e
IDEMPOTENT = {
    "objects": ["x"],
    "arrows": [{"id": "1x", "dom": "x", "cod": "x"},
               {"id": "e", "dom": "x", "cod": "x"}],
    "identities": {"x": "1x"},
    "compose": [["1x", "1x", "1x"], ["1x", "e", "e"], ["e", "1x", "e"],
                ["e", "e", "e"]],
}
IDENTITY_FUNCTOR = {"obj_map": {"x": "x"}, "arr_map": {"1x": "1x", "e": "e"}}
# 1x.e = 1x and e.e = 1x: the identity law and associativity fail; y has
# no arrow to or from x
LAWLESS_CATEGORY = {
    "objects": ["x", "y"],
    "arrows": [*IDEMPOTENT["arrows"], {"id": "1y", "dom": "y", "cod": "y"}],
    "identities": {"x": "1x", "y": "1y"},
    "compose": [["1x", "1x", "1x"], ["1x", "e", "1x"], ["e", "1x", "e"],
                ["e", "e", "1x"], ["1y", "1y", "1y"]],
}
CX = {"degrees": {"0": 1, "1": 1}, "boundary": {"1": [[1]]}}
DUAL_ON_ITSELF = {"complex": {"degrees": {"0": 2}},
                  "action": {"0": [[1, 0, 0, 0], [0, 1, 1, 0]]}}
# v.1 = 0 and v.v = v
LAWLESS_ALGEBRA = {"complex": {"degrees": {"0": 2}}, "unit": {"0": [[1], [0]]},
                   "mult": {"0": [[1, 0, 0, 0], [0, 1, 0, 1]]}}
# the identity contraction of the ground module
GROUND_LALI = {"module": {"kind": "ground"}, "g": {"0": [[1]]},
               "f0": {"0": [[1]]}, "eps0": {}}
# v acts by 0 on Q^2; eps0 = 0 cannot witness 1 - f0.g
BROKEN_LALI = {"module": {"complex": {"degrees": {"0": 2}},
                          "action": {"0": [[1, 0, 0, 0], [0, 1, 0, 0]]}},
               "g": {"0": [[1, 0]]}, "f0": {"0": [[1], [0]]}, "eps0": {}}


def subcommand_runs(tmp_path) -> list:
    """(exit status, argv) covering every subcommand, each built-in
    algebra, an instance file of each kind, FAIL lines and refusals."""
    def f(name, payload):
        p = tmp_path / name
        p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(p)

    badalg = f("badalg.json", LAWLESS_ALGEBRA)
    return [
        (0, ["awfs", "check", "--finset-max", "1"]),
        (0, ["awfs", "check", "--builtin", "psplitepi", "--comonad", "coreader:S=1",
             "--finset-max", "1", "--format", "json"]),
        (0, ["awfs", "check", "--builtin", "psplitepi", "--comonad", "identity",
             "--finset-max", "1"]),
        (0, ["weakmaps", "compare", "--A", "1", "--B", "1", "--bound", "2",
             "--zigzag", "2"]),
        (0, ["weakmaps", "compare", "--A", "1", "--B", "1", "--bound", "1"]),
        (0, ["bar", "resolve", "--trunc", "2"]),
        (0, ["bar", "resolve", "--trunc", "2", "--builtin", "exterior"]),
        (0, ["bar", "resolve", "--trunc", "2", "--dgalgebra", f("cone.json", CONE)]),
        # the first size at which `rank` reduces a row by a pivot row: the
        # faces and degeneracies have one nonzero per column
        (0, ["bar", "resolve", "--trunc", "3", "--dgalgebra", f("cone.json", CONE)]),
        (0, ["bar", "resolve", "--trunc", "2",
             "--dgmodule", f("dmod.json", DUAL_ON_ITSELF)]),
        (0, ["dg", "check", "--trunc", "2", "--trials", "1"]),
        (0, ["dg", "check", "--trunc", "2", "--trials", "1", "--builtin", "rationals"]),
        (0, ["lift", "lali", "--trunc", "2"]),
        (0, ["factor", "ulali", "--trunc", "2", "--plain"]),
        (0, ["lift", "lali", "--trunc", "2", "--module", "ground",
             "--lali", f("lali.json", GROUND_LALI)]),
        (0, ["validate", "--category", f("cat.json", IDEMPOTENT),
             "--comonad", f("com.json", {"functor": IDENTITY_FUNCTOR,
                                         "counit": {"x": "1x"}, "comult": {"x": "1x"}}),
             "--monad", f("mon.json", {"functor": IDENTITY_FUNCTOR,
                                       "unit": {"x": "1x"}, "mult": {"x": "1x"}})]),
        (0, ["validate", "--finset-max", "1",
             "--comonad", f("co.json", {"kind": "coreader", "S": ["s"]}),
             "--monad", f("ex.json", {"kind": "exception", "E": ["e"]})]),
        (0, ["validate", "--finset-max", "1",
             "--comonad", f("idc.json", {"kind": "identity"}),
             "--monad", f("idm.json", {"kind": "identity"})]),
        (0, ["validate", "--dgalgebra", f("alg.json", {"kind": "dual_numbers"}),
             "--dgmodule", f("mod.json", DUAL_ON_ITSELF),
             "--complex", f("cx.json", CX),
             "--gradedmap", f("g.json", {"src": CX, "dst": CX, "matrices":
                                         {"0": [["1/2"]], "1": [["1/2"]]}})]),
        (1, ["validate", "--category", f("badcat.json", LAWLESS_CATEGORY)]),
        (1, ["validate", "--gradedmap", f("badg.json", {"src": CX, "dst": CX,
                                                        "matrices": {"0": [[1]]}})]),
        (1, ["bar", "resolve", "--trunc", "2", "--dgalgebra", badalg]),
        (1, ["dg", "check", "--trunc", "2", "--dgalgebra", badalg]),
        (1, ["lift", "lali", "--trunc", "2", "--dgalgebra", badalg]),
        (1, ["factor", "ulali", "--trunc", "2", "--dgalgebra", badalg]),
        (1, ["lift", "lali", "--trunc", "2", "--module", "ground",
             "--lali", f("badlali.json", BROKEN_LALI)]),
        (2, ["validate", "--complex", f("broken.json", '{"degrees": {')]),
        (2, ["validate", "--finset-max", "1",
             "--monad", f("badkind.json", {"kind": "coreader", "S": ["s"]})]),
        (1, ["lift", "lali", "--trunc", "2", "--lali", f("side.json", SIDE_BROKEN_LALI)]),
    ]


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """`unreached` over the subcommand runs, each run's exit status checked."""
    files = sorted(PACKAGE.glob("*.py"))
    modules = [importlib.import_module(f"weakmaps.{p.stem}")
               for p in files if p.stem != "__main__"]
    runs = subcommand_runs(tmp_path_factory.mktemp("runs"))
    codes = []

    def run():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes.extend(main(argv) for _, argv in runs)

    found = unreached(run, files, modules, ORACLES)
    assert codes == [code for code, _ in runs]
    return found


def test_every_definition_runs_under_a_subcommand(reach):
    missing, _ = reach
    unlisted, ran = stale(missing, ORACLES)
    assert unlisted == []
    assert ran == [], "runs under a subcommand or is gone: drop it from ORACLES"


def test_every_statement_runs_under_a_subcommand(reach):
    _, missing = reach
    unlisted, ran = stale(missing, UNREACHED)
    assert unlisted == []
    assert ran == [], "runs under a subcommand or is gone: drop it from UNREACHED"


def _probe(tmp_path, source):
    path = tmp_path / "reach_probe.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location("reach_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return path, probe


def test_collector_reports_an_unreached_function(tmp_path):
    path, probe = _probe(
        tmp_path,
        "import functools\n\n\n"
        "class K:\n"
        "    def used(self):\n"
        "        return cached()\n\n\n"
        "@functools.cache\n"
        "def cached():\n"
        "    return 1\n\n\n"
        "def extra():\n"
        "    return 2\n")
    probe.cached()  # the collector must empty this cache to see the body run
    assert unreached(lambda: probe.K().used(), [path], [probe]) == (
        ["reach_probe.extra"], [("reach_probe.extra", "return 2", 0)])


def test_collector_reports_an_unreached_statement(tmp_path):
    path, probe = _probe(
        tmp_path,
        "def sign(x):\n"
        "    \"\"\"Docstrings and raise statements are never reported.\"\"\"\n"
        "    if x < 0:\n"
        "        return -1\n"
        "    elif x > 99:\n"
        "        raise ValueError(x)\n"
        "    total = (x\n"
        "             + 1)\n"
        "    return 1 if total else 0\n")
    assert unreached(lambda: probe.sign(0), [path], [probe]) == (
        [], [("reach_probe.sign", "return -1", 0)])



def walk_source(planted_at=None):
    """`walk`, whose `continue` under `x is None` never runs and whose
    `continue` under `x < 0` runs, with a planted `continue` that never
    runs inserted at position `planted_at` of its loop body."""
    body = ["        if x is None:\n", "            continue\n",
            "        if x < 0:\n", "            continue\n"]
    if planted_at is not None:
        body.insert(planted_at, "        if x == 'planted':\n            continue\n")
    return "def walk(xs):\n    for x in xs:\n" + "".join(body) + "    return 0\n"


@pytest.mark.parametrize("planted_at,ordinal", [(0, 1), (2, 1), (4, 2)])
def test_an_exemption_covers_exactly_one_statement(tmp_path, planted_at, ordinal):
    # the `continue` under `x is None` is exempt; a planted twin of it
    # fails the gate before it, between it and its reached twin, or last
    exempt = {("reach_probe.walk", "continue", 0): "xs holds no None"}
    path, probe = _probe(tmp_path, walk_source())
    missing = unreached(lambda: probe.walk([1, -1]), [path], [probe])[1]
    assert stale(missing, exempt) == ([], [])
    path, probe = _probe(tmp_path, walk_source(planted_at))
    missing = unreached(lambda: probe.walk([1, -1]), [path], [probe])[1]
    assert len(missing) == 2
    assert stale(missing, exempt)[0] == [("reach_probe.walk", "continue", ordinal)]
