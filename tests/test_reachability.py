"""Every function in `src/` runs under some subcommand.

The runtime counterpart of `test_no_dead_code.py`: instead of looking
for a function's name, the collector runs `cli.main` in-process under
`sys.setprofile` and records the code object of every call.  The runs
cover every subcommand on tiny lawful inputs, one instance file of each
kind, and corrupted files, so that the FAIL and refusal paths run too.

A definition (a `def` in `src/`, nested or not) that did not run fails
the test unless `ORACLES` names it with the reason it may stay; an
`ORACLES` entry that runs, or no longer exists, fails it as well.
"""

import ast
import contextlib
import importlib.util
import inspect
import io
import json
import sys
from pathlib import Path

import weakmaps
from weakmaps.cli import main

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
    "spans.WeakMapCategory.phi_by_filler":
        "oracle: phi computed through canonical fillers, compared with phi",
    "awfs.awfs_equal_on":
        "oracle: SplitEpiAwfs and PSplitEpiAwfs agree at P = Id",
    "spans.SpanZigzag.verify":
        "oracle: re-checks, map by map, a zigzag that span_equiv returned",
    "awfs.validate_awfs.ill_typed": BROKEN_AWFS,
    "fincat.KleisliArrow.__repr__": BROKEN_AWFS,
    **dict.fromkeys([
        "fincat.FinSetArrow.__setattr__", "fincat.FinSetArrow.__delattr__",
    ], "failure path: only code that mutates an arrow reaches it"),
    "awfs.validate_e_functoriality":
        "law E(h'h, k'k) = E(h',k') E(h,k); recording it in `awfs check`"
        " changes the awfs_laws report that perfbench/reference.json pins by"
        " md5, so it waits for a benchmark change that re-pins (ROADMAP item 1)",
    **dict.fromkeys([
        "spans.span_compose", "spans.identity_span",
        "fincat.CoKleisliCategory.identity", "fincat.CoKleisliCategory.dom",
        "fincat.CoKleisliCategory.cod", "fincat.CoKleisliCategory.compose",
        "fincat.CoKleisliCategory.hom", "fincat.CoKleisliCategory.cofree",
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


def definitions(path: Path) -> dict:
    """(file, first line) -> dotted name of every `def` in `path`.  The
    first line is that of the first decorator, as in the code object."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), first] = prefix + child.name
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), f"{path.stem}.")
    return found


def _clear_caches(modules):
    """Empty every `functools.cache` of `modules` and of their classes,
    so that a body whose result an earlier test cached runs again."""
    for mod in modules:
        for obj in vars(mod).values():
            for m in vars(obj).values() if inspect.isclass(obj) else (obj,):
                clear = getattr(getattr(m, "__func__", m), "cache_clear", None)
                if callable(clear):
                    clear()


def unreached(run, paths, modules) -> list:
    """Sorted dotted names of the definitions in the files `paths` whose
    code did not start while `run()` ran.  `modules` are the imported
    files, whose caches are emptied first."""
    defs = {}
    for p in paths:
        defs.update(definitions(Path(p).resolve()))
    _clear_caches(modules)
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    ran = {(str(Path(f).resolve()), line) for f, line in seen}
    return sorted(name for key, name in defs.items() if key not in ran)


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
# 1x.e = 1x: the identity law fails
LAWLESS_CATEGORY = {**IDEMPOTENT, "compose": [
    ["1x", "1x", "1x"], ["1x", "e", "1x"], ["e", "1x", "e"], ["e", "e", "e"]]}
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
    """(exit status, argv) covering every subcommand, an instance file of
    each kind, FAIL lines and a refusal."""
    def f(name, payload):
        p = tmp_path / name
        p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(p)

    return [
        (0, ["awfs", "check", "--finset-max", "1"]),
        (0, ["awfs", "check", "--builtin", "psplitepi", "--comonad", "coreader:S=1",
             "--finset-max", "1", "--format", "json"]),
        (0, ["weakmaps", "compare", "--A", "1", "--B", "1", "--bound", "2",
             "--zigzag", "2"]),
        (0, ["bar", "resolve", "--trunc", "2"]),
        (0, ["dg", "check", "--trunc", "2", "--trials", "1"]),
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
             "--gradedmap", f("g.json", {"src": CX, "dst": CX,
                                         "matrices": {"0": [[1]], "1": [[1]]}})]),
        (1, ["validate", "--category", f("badcat.json", LAWLESS_CATEGORY)]),
        (1, ["validate", "--gradedmap", f("badg.json", {"src": CX, "dst": CX,
                                                        "matrices": {"0": [[1]]}})]),
        (1, ["bar", "resolve", "--trunc", "2",
             "--dgalgebra", f("badalg.json", LAWLESS_ALGEBRA)]),
        (1, ["lift", "lali", "--trunc", "2", "--module", "ground",
             "--lali", f("badlali.json", BROKEN_LALI)]),
        (2, ["validate", "--complex", f("broken.json", '{"degrees": {')]),
    ]


def test_every_definition_runs_under_a_subcommand(tmp_path):
    files = sorted(PACKAGE.glob("*.py"))
    modules = [importlib.import_module(f"weakmaps.{p.stem}")
               for p in files if p.stem != "__main__"]
    runs = subcommand_runs(tmp_path)
    codes = []

    def run():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes.extend(main(argv) for _, argv in runs)

    missing = unreached(run, files, modules)
    assert codes == [code for code, _ in runs]
    assert [n for n in missing if n not in ORACLES] == []
    assert [n for n in ORACLES if n not in missing] == [], \
        "runs under a subcommand or is gone: drop it from ORACLES"


def test_collector_reports_an_unreached_function(tmp_path):
    path = tmp_path / "reach_probe.py"
    path.write_text(
        "import functools\n\n\n"
        "class K:\n"
        "    def used(self):\n"
        "        return cached()\n\n\n"
        "@functools.cache\n"
        "def cached():\n"
        "    return 1\n\n\n"
        "def extra():\n"
        "    return 2\n")
    spec = importlib.util.spec_from_file_location("reach_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    probe.cached()  # the collector must empty this cache to see the body run
    assert unreached(lambda: probe.K().used(), [path], [probe]) == ["reach_probe.extra"]
