"""Exit codes, determinism, and report formats of the command line."""

import ast
import fcntl
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import weakmaps
import weakmaps.bar
import weakmaps.cli
from weakmaps import schemas
from weakmaps.bar import BarError
from weakmaps.cli import build_parser, main
from weakmaps.dg import DgError, GradedMap
from weakmaps.fincat import CategoryError
from weakmaps.ratmat import mat
from weakmaps.schemas import load_algebra, load_module

from generators import (CONE, SIDE_BROKEN_LALI, apex_shifted,
                        break_square_zero, kappa_swapped)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(p)


def src_env(**extra):
    """The environment, plus `extra`, of a subprocess that imports
    weakmaps from the same `src` as this test run."""
    src = str(Path(weakmaps.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


# --- exit code 0: passing suites --------------------------------------------


def test_awfs_check_passes(capsys):
    code, out, err = run(capsys, "awfs", "check", "--finset-max", "2")
    assert code == 0 and err == ""
    assert out.startswith("# tool: weakmaps awfs check\n")
    assert "# seed: 0\n" in out
    assert " : PASS" in out and "FAIL" not in out
    assert out.rstrip().splitlines()[-1].startswith("SUMMARY: checks=")


def test_compare_census_frozen(capsys):
    code, out, _ = run(capsys, "weakmaps", "compare", "--A", "1", "--B", "2",
                       "--bound", "6")
    assert code == 0
    assert "  co-Kleisli arrows = 4" in out
    assert "  bounded spans = 3450" in out
    assert "  span classes = 4" in out
    assert "EQ canonical.reach @ 3450 spans within apex<=6 : PASS" in out


def test_compare_from_the_empty_set(capsys):
    # the one span from A = {} is the empty span {} <- {} -> B, apex 0
    code, out, _ = run(capsys, "weakmaps", "compare", "--A", "0", "--B", "1",
                       "--bound", "2")
    assert code == 0
    assert "  bounded spans = 1\n" in out
    assert "EQ class.count @ apex<=2 : PASS" in out


def test_bar_resolve_default_summary(capsys):
    code, out, _ = run(capsys, "bar", "resolve")
    assert code == 0
    assert out.rstrip().endswith("SUMMARY: checks=57 pass=56 fail=0 exempt=1")
    assert "  dim N(X_0) = {0: 2}\n" in out
    assert "  H_0 = 1" in out and "  H_4 = 0" in out


def test_dg_check_trial_count(capsys):
    code, out, _ = run(capsys, "dg", "check", "--builtin", "exterior",
                       "--module", "free", "--trials", "3")
    assert code == 0
    # four law records per trial, plus algebra and module validation
    assert sum(line.startswith("EQ dg.") for line in out.splitlines()) == 12


def test_lift_and_factor_demo(capsys):
    code, out, _ = run(capsys, "lift", "lali", "--module", "free")
    assert code == 0
    assert "demo=twisted" in out
    assert "  f nonzero levels = [0, 1]" in out
    code, out, _ = run(capsys, "factor", "ulali", "--module", "free",
                       "--plain")
    assert code == 0
    assert "demo=plain" in out
    assert "  chain map = True" in out


# one object x, arrows 1x and e; every composite is e except 1x.1x = 1x
IDEMPOTENT = {
    "objects": ["x"],
    "arrows": [{"id": "1x", "dom": "x", "cod": "x"},
               {"id": "e", "dom": "x", "cod": "x"}],
    "identities": {"x": "1x"},
    "compose": [["1x", "1x", "1x"], ["1x", "e", "e"], ["e", "1x", "e"],
                ["e", "e", "e"]],
}
IDENTITY_FUNCTOR = {"obj_map": {"x": "x"}, "arr_map": {"1x": "1x", "e": "e"}}


def test_table_comonad_and_monad_pass(tmp_path, capsys):
    code, out, err = run(
        capsys, "validate",
        "--category", write(tmp_path, "cat.json", IDEMPOTENT),
        "--comonad", write(tmp_path, "com.json", {
            "functor": IDENTITY_FUNCTOR, "counit": {"x": "1x"},
            "comult": {"x": "1x"}}),
        "--monad", write(tmp_path, "mon.json", {
            "functor": IDENTITY_FUNCTOR, "unit": {"x": "1x"},
            "mult": {"x": "1x"}}))
    assert code == 0 and err == ""
    assert "EQ comonad.coassoc @ x : PASS" in out
    assert "EQ monad.assoc @ x : PASS" in out
    assert out.rstrip().endswith("SUMMARY: checks=16 pass=16 fail=0 exempt=0")


def test_dgalgebra_with_differential_has_reduced_differential():
    assert load_algebra(CONE).abar.d == {1: mat([[1]])}


@pytest.mark.parametrize("args", [
    ("bar", "resolve", "--module", "ground", "--trunc", "3"),
    ("bar", "resolve", "--module", "free", "--trunc", "2"),
    ("dg", "check", "--trunc", "2", "--trials", "3"),
    ("lift", "lali", "--trunc", "2"),
    ("factor", "ulali", "--trunc", "2"),
], ids=["resolve-ground", "resolve-free", "dg-check", "lift-lali",
        "factor-ulali"])
def test_dgalgebra_file_with_differential(tmp_path, capsys, args):
    alg = write(tmp_path, "cone.json", CONE)
    code, out, err = run(capsys, *args, "--dgalgebra", alg)
    assert code == 0 and err == ""
    assert f"dgalgebra={alg}" in out.splitlines()[1]
    if "ground" in args:
        # A -> Q is a quasi-isomorphism, so the resolution has H = Q
        assert "  H_0 = 1\n  H_1 = 0\n  H_2 = 0\n" in out


# v.1 = 0 and v.v = v: neither unital nor associative
LAWLESS = {"complex": {"degrees": {"0": 2}}, "unit": {"0": [[1], [0]]},
           "mult": {"0": [[1, 0, 0, 0], [0, 1, 0, 1]]}}


# B = Q with the zero action: 1.b = 0 breaks the unit law
LAWLESS_LALI = {
    "module": {"complex": {"degrees": {"0": 1}}, "action": {}, "name": "B"},
    "g": {"0": [[1]]}, "f0": {"0": [[1]]}, "eps0": {}}


@pytest.mark.parametrize("group,action,lawless", [
    ("bar", "resolve", "algebra"), ("dg", "check", "algebra"),
    ("lift", "lali", "algebra"), ("factor", "ulali", "algebra"),
    ("lift", "lali", "module"), ("factor", "ulali", "module"),
], ids=["bar-resolve", "dg-check", "lift-lali", "factor-ulali",
        "lift-lali-module", "factor-ulali-module"])
def test_lawless_algebra_reported(tmp_path, capsys, group, action, lawless):
    # every dg subcommand reports the broken law and runs nothing else
    if lawless == "algebra":
        args = ["--dgalgebra", write(tmp_path, "a.json", LAWLESS)]
        line = "EQ alg.unit.right @ A : FAIL"
    else:
        args = ["--module", "ground",
                "--lali", write(tmp_path, "lali.json", LAWLESS_LALI)]
        line = "EQ mod.act.unit @ B : FAIL"
    code, out, err = run(capsys, group, action, "--trunc", "2", *args)
    assert code == 1 and err == ""
    assert line in out
    assert all(ln.startswith(("EQ alg.", "EQ mod.")) for ln in out.splitlines()
               if ln.startswith("EQ ")), out
    assert "TABLE" not in out


@pytest.mark.parametrize("group,action", [("lift", "lali"), ("factor", "ulali")])
def test_lawless_algebra_builds_no_demo_lali(tmp_path, capsys, group, action):
    # B's laws over a lawless algebra only repeat its FAILs: not checked
    code, out, err = run(capsys, group, action, "--trunc", "2",
                         "--dgalgebra", write(tmp_path, "a.json", LAWLESS))
    assert code == 1 and err == ""
    assert "EQ alg.unit.right @ A : FAIL" in out
    assert "@ thick" not in out


# d.d = 0 on A, but d(1) = e_{-1} != 0: Abar's induced d does not square
# to zero, so the unit and mult fail to be chain maps
UNIT_NOT_A_CYCLE = {
    "complex": {"degrees": {"1": 1, "0": 2, "-1": 1},
                "boundary": {"1": [[1], [1]], "0": [[1, -1]]}},
    "unit": {"0": [[1], [0]]},
    "mult": {"0": [[0, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0]],
             "1": [[1, 0, 1, 0]], "-1": [[1, 0, 1, 0]]}}


@pytest.mark.parametrize("command", ["validate", "bar resolve"])
def test_unit_that_is_not_a_cycle_is_reported(tmp_path, capsys, command):
    alg = write(tmp_path, "a.json", UNIT_NOT_A_CYCLE)
    code, out, err = run(capsys, *command.split(), "--dgalgebra", alg)
    assert code == 1 and err == ""
    assert "EQ alg.unit.chain @ A : FAIL(lhs=deg=0 D=" in out
    assert "EQ alg.mult.chain @ A : FAIL(lhs=deg=0 D=" in out
    assert "TABLE" not in out


def broken_total(monkeypatch):
    # the built total complex with one boundary entry moved
    class Broken(weakmaps.bar.TruncatedCodescent):
        def __init__(self, calc):
            super().__init__(calc)
            break_square_zero(self.total)
    monkeypatch.setattr(weakmaps.bar, "TruncatedCodescent", Broken)


def product_unlike_the_action(monkeypatch):
    # after the law checks, the dual numbers multiply by x.x = x while x
    # still acts on the free module by x.x = 0: the faces the complex is
    # built from are not associative together, and d.d != 0 on |X|
    load = weakmaps.cli._dg_inputs

    def inputs(ns):
        cfg, alg, mod, laws = load(ns)
        alg.mult = GradedMap(alg.mult.src, alg.cx, 0,
                             {0: mat([[1, 0, 0, 0], [0, 1, 1, 1]])})
        return cfg, alg, mod, laws
    monkeypatch.setattr(weakmaps.cli, "_dg_inputs", inputs)


@pytest.mark.parametrize("corrupt", [broken_total, product_unlike_the_action])
def test_bar_resolve_reports_a_broken_codescent_complex(monkeypatch, capsys,
                                                        corrupt):
    # A (x) |X| refuses d.d != 0 with DgError, so the run stops at the
    # cod.boundary.sq FAIL lines before bar_lali would build abar on it
    corrupt(monkeypatch)
    code, out, err = run(capsys, "bar", "resolve", "--trunc", "2",
                         "--module", "free")
    assert code == 1 and err == ""
    assert "EQ cod.boundary.sq @ dual_numbers/free k=" in out
    assert "EQ cod.boundary.sq @ dual_numbers/free : FAIL(" in out
    assert "EQ lali." not in out and "TABLE" not in out


# the dual numbers acting on themselves, written out
DUAL_ON_ITSELF = {"complex": {"degrees": {"0": 2}},
                  "action": {"0": [[1, 0, 0, 0], [0, 1, 1, 0]]}}


def test_bar_resolve_module_file(tmp_path, capsys):
    mod = write(tmp_path, "m.json", DUAL_ON_ITSELF)
    code, out, err = run(capsys, "bar", "resolve", "--dgmodule", mod,
                         "--trunc", "3")
    assert code == 0 and err == ""
    assert f"dgmodule={mod}" in out.splitlines()[1]


def test_validate_algebra_and_module_files(tmp_path, capsys):
    code, out, err = run(
        capsys, "validate",
        "--dgalgebra", write(tmp_path, "a.json", DUAL),
        "--dgmodule", write(tmp_path, "m.json", DUAL_ON_ITSELF))
    assert code == 0 and err == ""
    assert out.rstrip().endswith("SUMMARY: checks=11 pass=11 fail=0 exempt=0")


def test_validate_builtin_comonad_on_finite_sets(tmp_path, capsys):
    com = write(tmp_path, "c.json", {"kind": "coreader", "S": ["s0", "s1"]})
    code, out, err = run(capsys, "validate", "--comonad", com)
    assert code == 0 and err == ""
    assert "finset-max=2" in out.splitlines()[1]
    assert out.rstrip().endswith("SUMMARY: checks=14 pass=14 fail=0 exempt=0")


def test_validate_exception_monad_report_frozen(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "m.json", {"kind": "exception", "E": ["e"]})
    code, out, err = run(capsys, "validate", "--monad", "m.json",
                         "--finset-max", "2")
    assert code == 0 and err == ""
    assert out.count(" : PASS\n") == 14
    assert hashlib.md5(out.encode()).hexdigest() == "b68b24161df593ce12b190477dcec745"


def test_validate_exception_monad_reusing_a_carrier_label(tmp_path, capsys):
    mon = write(tmp_path, "m.json", {"kind": "exception", "E": ["x1"]})
    code, out, err = run(capsys, "validate", "--monad", mon, "--finset-max", "2")
    assert code == 0 and err == ""
    assert out.rstrip().endswith("SUMMARY: checks=14 pass=14 fail=0 exempt=0")


def test_validate_identity_monad(tmp_path, capsys):
    mon = write(tmp_path, "m.json", {"kind": "identity"})
    code, out, err = run(capsys, "validate", "--monad", mon, "--finset-max", "2")
    assert code == 0 and err == ""
    laws = [ln for ln in out.splitlines() if ln.startswith("EQ monad.")]
    assert laws and all(ln.endswith(" : PASS") for ln in laws)


def test_awfs_check_identity_comonad(capsys):
    code, out, err = run(capsys, "awfs", "check", "--builtin", "psplitepi",
                         "--comonad", "identity", "--finset-max", "1")
    assert code == 0 and err == ""
    assert "comonad=identity" in out.splitlines()[1]


# --- determinism and format parity ------------------------------------------


def test_reruns_are_byte_identical(capsys):
    args = ("dg", "check", "--trials", "2", "--seed", "9")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# runs each argv list of argv[1] through cli.main in one process and
# prints the exit status and the md5 of the report
MD5_PER_RUN = """
import contextlib, hashlib, io, json, sys
from weakmaps.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(code, hashlib.md5(out.getvalue().encode()).hexdigest(), *argv)
"""


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    runs = [
        ["awfs", "check", "--finset-max", "2"],
        ["awfs", "check", "--builtin", "psplitepi", "--finset-max", "1"],
        ["weakmaps", "compare", "--A", "1", "--B", "2", "--bound", "3"],
        ["bar", "resolve", "--trunc", "2"],
        ["dg", "check", "--trunc", "2", "--trials", "2"],
        ["lift", "lali", "--trunc", "2"],
        ["factor", "ulali", "--trunc", "2"],
        ["validate", "--category", write(tmp_path, "cat.json", IDEMPOTENT)],
        ["validate", "--finset-max", "2",
         "--comonad", write(tmp_path, "c.json", {"kind": "coreader", "S": ["s", "t"]}),
         "--monad", write(tmp_path, "m.json", {"kind": "exception", "E": ["e"]}),
         "--dgalgebra", write(tmp_path, "a.json", CONE)],
    ]
    outs = [subprocess.run(
        [sys.executable, "-c", MD5_PER_RUN, json.dumps(runs)],
        env=src_env(PYTHONHASHSEED=seed),
        capture_output=True, text=True, check=True, timeout=60).stdout
        for seed in ("0", "1")]
    assert [ln.split()[0] for ln in outs[0].splitlines()] == ["0"] * len(runs)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_reader_closing_stdout_ends_the_run_quietly(unbuffered):
    # the reader takes one line and closes the pipe.  The pipe holds one
    # page and the report is longer, so a later write meets the closed end
    r, w = os.pipe()
    fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "weakmaps", "awfs", "check", "--finset-max", "2"],
        stdout=w, stderr=subprocess.PIPE,
        env=src_env(PYTHONUNBUFFERED=unbuffered))
    os.close(w)
    with open(r, "rb", buffering=0) as out:
        assert out.readline() == b"# tool: weakmaps awfs check\n"
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


# --- each subcommand imports only the layers it runs -------------------------

LAYERS = {f"weakmaps.{p.stem}" for p in Path(weakmaps.__file__).parent.glob("*.py")
          if p.stem not in ("__init__", "__main__", "cli")}
DG_STACK = {"weakmaps.bar", "weakmaps.dg", "weakmaps.ratmat"}
# what no subcommand loads: `dataclasses` costs ~12 ms of start-up, most of
# it in the `inspect` it imports
UNUSED = {"dataclasses", "inspect"}
FINSET_STACK = {"weakmaps.fincat", "weakmaps.awfs", "weakmaps.spans"}
# command ("CATEGORY" stands for a category file) -> modules that a
# `python3 -m weakmaps` process running it must not import
NOT_IMPORTED = {
    "--help": LAYERS | {"json", "random", "fractions"} | UNUSED,
    "awfs check --finset-max 1": DG_STACK | {"fractions", "weakmaps.schemas"} | UNUSED,
    "awfs check --builtin psplitepi --finset-max 1":
        DG_STACK | {"fractions", "weakmaps.schemas"} | UNUSED,
    "weakmaps compare --bound 2": DG_STACK | {"fractions", "weakmaps.schemas"} | UNUSED,
    "bar resolve --trunc 2": FINSET_STACK | UNUSED,
    "dg check --trunc 2 --trials 1": FINSET_STACK | UNUSED,
    "lift lali --trunc 2": FINSET_STACK | UNUSED,
    "factor ulali --trunc 2": FINSET_STACK | UNUSED,
    "validate --category CATEGORY": DG_STACK | UNUSED,
}


def imported(*args):
    """(exit status, set of the modules imported) of a fresh
    `python3 -X importtime ARGS` process."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=src_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    return proc.returncode, {
        ln.rsplit("|", 1)[1].strip() for ln in proc.stderr.splitlines()
        if ln.startswith("import time:") and ln.count("|") == 2}


@pytest.fixture(scope="module")
def startup_modules():
    """What interpreter start-up imports before any weakmaps code runs."""
    return imported("-c", "pass")[1]


@pytest.mark.parametrize("command", NOT_IMPORTED)
def test_subcommand_imports_only_its_layers(command, startup_modules,
                                            tmp_path):
    argv = shlex.split(command.replace(
        "CATEGORY", write(tmp_path, "cat.json", IDEMPOTENT)))
    status, mods = imported("-m", "weakmaps", *argv)
    mods -= startup_modules
    assert status == 0 and "weakmaps.cli" in mods
    assert not mods & NOT_IMPORTED[command], sorted(mods & NOT_IMPORTED[command])


# --- exit status 2 for errors raised while a run computes -------------------


def test_run_time_errors_share_one_root():
    assert all(issubclass(e, weakmaps.InputError)
               for e in (BarError, CategoryError, DgError))
    assert schemas.SchemaError is weakmaps.SchemaError
    assert not issubclass(weakmaps.SchemaError, weakmaps.InputError)


@pytest.mark.parametrize("error, prefix", [
    (BarError, "input error: "), (CategoryError, "input error: "),
    (DgError, "input error: "), (schemas.SchemaError, "schema error: ")])
def test_error_raised_by_a_handler_exits_2(error, prefix, monkeypatch,
                                           capsys):
    def handler(ns):
        raise error("no use for this input")
    monkeypatch.setattr(weakmaps.cli, "_run_dg_check", handler)
    code, out, err = run(capsys, "dg", "check", "--trials", "1")
    assert (code, out, err) == (2, "", prefix + "no use for this input\n")


def test_class_count_is_exempt_below_the_canonical_apex(capsys):
    # the canonical spans need apex |QA| = 4 at A = 2, S = 2
    code, out, _ = run(capsys, "weakmaps", "compare", "--A", "2", "--B", "2",
                       "--bound", "2")
    assert code == 0
    assert "EQ class.count @ apex<=2 : TRUNCATION-EXEMPT\n" in out
    code, out, _ = run(capsys, "weakmaps", "compare", "--A", "2", "--B", "2",
                       "--bound", "4")
    assert code == 0
    assert "EQ class.count @ apex<=4 : PASS\n" in out


def test_json_carries_the_same_report(capsys):
    args = ("weakmaps", "compare", "--A", "1", "--B", "1", "--bound", "3",
            "--seed", "5")
    _, text, _ = run(capsys, *args)
    code, js, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    doc = json.loads(js)
    assert doc["tool"] == "weakmaps weakmaps compare"
    assert doc["seed"] == 5
    assert doc["config"]["bound"] == "3"
    assert doc["report"]["ok"] is True
    eq_lines = [l for l in text.splitlines() if l.startswith("EQ ")]
    assert len(doc["report"]["checks"]) == len(eq_lines)
    _, js2, _ = run(capsys, *args, "--format", "json")
    assert js == js2


def test_seed_changes_subjects_not_verdicts(capsys):
    _, a, _ = run(capsys, "dg", "check", "--trials", "2", "--seed", "1")
    _, b, _ = run(capsys, "dg", "check", "--trials", "2", "--seed", "2")
    assert a != b
    assert "# seed: 1" in a and "# seed: 2" in b
    for out in (a, b):
        assert "FAIL" not in out


# --- exit code 2: rejected input, no partial report -------------------------


def test_malformed_json_positions(tmp_path, capsys):
    bad = write(tmp_path, "broken.json", '{"degrees": {')
    code, out, err = run(capsys, "validate", "--complex", bad)
    assert code == 2
    assert out == ""
    assert err.startswith("schema error: ")
    assert f"{bad}:1:" in err


def test_boundary_square_rejected_at_load(tmp_path, capsys):
    bad = write(tmp_path, "badcx.json", {
        "degrees": {"0": 1, "1": 1, "2": 1},
        "boundary": {"1": [[1]], "2": [[1]]},
    })
    code, out, err = run(capsys, "validate", "--complex", bad)
    assert code == 2 and out == ""
    assert "schema error" in err


@pytest.mark.parametrize("flag,payload", [
    ("--gradedmap", {"src": {"degrees": {"0": 1}}, "dst": {"degrees": {"0": 1}},
                     "matrices": {"0": [[0, 0, 0]]}}),
    ("--gradedmap", {"src": {"degrees": {"0": 1}}, "dst": {"degrees": {"0": 1}},
                     "matrices": {"5": [[7]]}}),
    ("--complex", {"degrees": {"0": 1}, "boundary": {"7": [[1]]}}),
])
def test_dropped_blocks_rejected_at_load(tmp_path, capsys, flag, payload):
    code, out, err = run(capsys, "validate", flag, write(tmp_path, "x.json", payload))
    assert code == 2 and out == ""
    assert re.search(r"schema error: .*\$\.(matrices|boundary)\.\d", err)


@pytest.mark.parametrize("flag,payload", [
    ("--complex", {"degrees": {"0": 1, "1": 1},
                   "boundary": {"1": [[1]], "01": [[0]]}}),
    ("--gradedmap", {"src": {"degrees": {"0": 1}}, "dst": {"degrees": {"0": 1}},
                     "matrices": {"0": [[5]], "+0": [[0]]}}),
])
def test_aliased_degree_keys_rejected_at_load(tmp_path, capsys, flag, payload):
    code, out, err = run(capsys, "validate", flag, write(tmp_path, "x.json", payload))
    assert code == 2 and out == ""
    assert re.search(r"schema error: .*\$\.(matrices|boundary): key '(01|\+0)'", err)


def test_validate_without_inputs(capsys):
    code, _, err = run(capsys, "validate")
    assert code == 2
    assert "no input files" in err


def test_module_without_algebra(tmp_path, capsys):
    mod = write(tmp_path, "mod.json", {"kind": "ground"})
    code, _, err = run(capsys, "validate", "--dgmodule", mod)
    assert code == 2
    assert "--dgalgebra" in err


def test_unknown_comonad_spec(capsys):
    code, _, err = run(capsys, "awfs", "check", "--builtin", "psplitepi",
                       "--comonad", "writer:S=2")
    assert code == 2
    assert "unknown spec" in err


def test_empty_coreader_spec(capsys):
    code, _, err = run(capsys, "awfs", "check", "--builtin", "psplitepi",
                       "--comonad", "coreader:S=0")
    assert code == 2
    assert "--comonad" in err


# --- exit code 2: an option the chosen run cannot use -------------------------


@pytest.mark.parametrize("spec", ["coreader:S=5", "identity"])
def test_comonad_without_psplitepi_is_refused(capsys, spec):
    # splitepi is PSplitEpiAwfs at P = Id, yet takes no --comonad, identity included
    code, out, err = run(capsys, "awfs", "check", "--comonad", spec)
    assert (code, out) == (2, "")
    assert err.startswith("schema error: --comonad: ")


@pytest.mark.parametrize("tool", [("lift", "lali"), ("factor", "ulali")])
def test_lali_file_and_plain_are_exclusive(tmp_path, capsys, tool):
    lali = write(tmp_path, "lali.json", SIDE_BROKEN_LALI)
    with pytest.raises(SystemExit) as exit_:
        main([*tool, "--lali", lali, "--plain"])
    out, err = capsys.readouterr()
    assert (exit_.value.code, out) == (2, "")
    assert "argument --plain: not allowed with argument --lali" in err


@pytest.mark.parametrize("inputs", [
    {"--complex": {"degrees": {"0": 1}}},
    {"--category": IDEMPOTENT,
     "--comonad": {"functor": IDENTITY_FUNCTOR, "counit": {"x": "1x"},
                   "comult": {"x": "1x"}}},
])
def test_finset_max_without_a_finite_set_run_is_refused(tmp_path, capsys,
                                                        inputs):
    args = [a for flag, payload in inputs.items()
            for a in (flag, write(tmp_path, flag[2:] + ".json", payload))]
    code, out, err = run(capsys, "validate", *args, "--finset-max", "3")
    assert (code, out) == (2, "")
    assert err.startswith("schema error: --finset-max: ")


@pytest.mark.parametrize("flag,payload", [
    ("--comonad", {"functor": {"obj_map": {}, "arr_map": {}},
                   "counit": {}, "comult": {}}),
    ("--monad", {"functor": {"obj_map": {}, "arr_map": {}},
                 "unit": {}, "mult": {}}),
])
def test_table_effect_without_category(tmp_path, capsys, flag, payload):
    code, out, err = run(capsys, "validate", flag, write(tmp_path, "e.json", payload))
    assert code == 2 and out == ""
    assert re.search(r"schema error: \$\.functor: .*--category", err)


@pytest.mark.parametrize("rows,where", [
    # e.e listed twice: the second row would silently win
    ([["i", "i", "i"], ["e", "i", "e"], ["i", "e", "e"], ["e", "e", "e"],
      ["e", "e", "i"]], r"\$\.compose\[4\]: second row for 'e' after 'e'"),
    ([["i", "i", "i"], ["e", "i", "e"], ["i", "e", "e"]],
     r"\$\.compose: no row for 'e' after 'e'"),
])
def test_category_compose_table_rejected_at_load(tmp_path, capsys, rows, where):
    cat = write(tmp_path, "cat.json", {
        "objects": ["x"],
        "arrows": [{"id": "i", "dom": "x", "cod": "x"},
                   {"id": "e", "dom": "x", "cod": "x"}],
        "identities": {"x": "i"},
        "compose": rows,
    })
    code, out, err = run(capsys, "validate", "--category", cat)
    assert code == 2 and out == ""
    assert re.search(r"schema error: " + where, err)


ONE_ARROW = {"objects": ["x"], "arrows": [{"id": "i", "dom": "x", "cod": "x"}],
             "identities": {"x": "i"}, "compose": [["i", "i", "i"]]}


def _one_arrow(**changes):
    return {**json.loads(json.dumps(ONE_ARROW)), **changes}


@pytest.mark.parametrize("flag,payload,where", [
    ("--category", _one_arrow(arrows=[{"id": ["i"], "dom": "x", "cod": "x"}]),
     r"\$\.arrows\[0\]\.id: expected a string"),
    ("--category", _one_arrow(compose=[[["i"], "i", "i"]]),
     r"\$\.compose\[0\]\[0\]: expected a string"),
    ("--category", _one_arrow(identities=["x"]),
     r"\$\.identities: expected an object"),
    ("--category", _one_arrow(objects=["x", "x"]),
     r"\$\.objects: 'x' is listed twice"),
    ("--comonad", {"functor": {"obj_map": {"x": "x"}, "arr_map": {"i": "i"}},
                   "counit": {"x": ["i"]}, "comult": {"x": "i"}},
     r"\$\.counit\.x: expected a string"),
    ("--monad", {"functor": {"obj_map": {"x": "x"}, "arr_map": {"i": ["i"]}},
                 "unit": {"x": "i"}, "mult": {"x": "i"}},
     r"\$\.functor\.arr_map\.i: expected a string"),
    ("--comonad", {"functor": {"obj_map": {"x": "x"},
                               "arr_map": {"i": "i", "j": "i"}},
                   "counit": {"x": "i"}, "comult": {"x": "i"}},
     r"\$\.functor\.arr_map\.j: unknown key"),
    ("--monad", {"functor": {"obj_map": {"x": "x"}, "arr_map": {"i": "i"}},
                 "unit": {"x": "i", "y": "i"}, "mult": {"x": "i"}},
     r"\$\.unit\.y: unknown key"),
    ("--monad", {"kind": "exception", "E": ["e", "e"]},
     r"\$\.E: 'e' is listed twice"),
    ("--comonad", {"kind": "coreader", "S": ["s", "s"]},
     r"\$\.S: 's' is listed twice"),
], ids=["arrow-id", "compose-entry", "identities-list", "objects-twice",
        "counit-value", "arr-map-value", "arr-map-key", "unit-key",
        "exception-twice", "coreader-twice"])
def test_malformed_table_rejected_at_load(tmp_path, capsys, flag, payload, where):
    args = ["validate", flag, write(tmp_path, "x.json", payload)]
    if flag != "--category" and "kind" not in payload:
        args += ["--category", write(tmp_path, "cat.json", ONE_ARROW)]
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert re.search(r"schema error: " + where, err)


CX = {"degrees": {"0": 1}}
DUAL = {"kind": "dual_numbers"}


@pytest.mark.parametrize("flag,payload,where", [
    ("--complex", {"degrees": {"0": 1, "1": 1}, "boundry": {"1": [[1]]}},
     "$.boundry"),
    ("--gradedmap", {"src": CX, "dst": CX, "matrix": {"0": [[1]]}},
     "$.matrix"),
    ("--gradedmap", {"src": {**CX, "boundry": {}}, "dst": CX}, "$.src.boundry"),
    ("--dgalgebra", {**DUAL, "name": "D"}, "$.name"),
    ("--dgalgebra", {**LAWLESS, "mul": {}}, "$.mul"),
    ("--dgmodule", {"kind": "ground", "name": "k"}, "$.name"),
    ("--dgmodule", {**DUAL_ON_ITSELF, "actoin": {}}, "$.actoin"),
    ("--comonad", {"kind": "coreader", "S": ["s"], "E": ["e"]}, "$.E"),
    ("--comonad", {"kind": "identity", "S": ["s"]}, "$.S"),
    ("--monad", {"kind": "exception", "E": ["e"], "S": ["s"]}, "$.S"),
    ("--comonad", {"functor": {"obj_map": {"x": "x"}, "arr_map": {"i": "i"},
                               "ob_map": {}},
                   "counit": {"x": "i"}, "comult": {"x": "i"}},
     "$.functor.ob_map"),
    ("--comonad", {"functor": {"obj_map": {"x": "x"}, "arr_map": {"i": "i"}},
                   "counit": {"x": "i"}, "comult": {"x": "i"}, "unit": {}},
     "$.unit"),
    ("--monad", {"functor": {"obj_map": {"x": "x"}, "arr_map": {"i": "i"}},
                 "unit": {"x": "i"}, "mult": {"x": "i"}, "counit": {}},
     "$.counit"),
], ids=["complex", "gradedmap", "gradedmap-src", "builtin-algebra", "algebra",
        "builtin-module", "module", "coreader", "identity", "exception",
        "functor", "table-comonad", "table-monad"])
def test_unknown_key_rejected_at_load(tmp_path, capsys, flag, payload, where):
    args = ["validate", flag, write(tmp_path, "x.json", payload)]
    if flag == "--dgmodule":
        args += ["--dgalgebra", write(tmp_path, "a.json", DUAL)]
    if flag in ("--comonad", "--monad") and "kind" not in payload:
        args += ["--category", write(tmp_path, "cat.json", ONE_ARROW)]
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err == f"schema error: {where}: unknown key\n"


def test_unknown_lali_key_rejected_at_load(tmp_path, capsys):
    lali = write(tmp_path, "lali.json", {
        "module": {"kind": "ground"}, "g": {"0": [[1]]}, "f0": {"0": [[1]]},
        "eps": {}})
    code, out, err = run(capsys, "lift", "lali", "--module", "ground",
                         "--lali", lali)
    assert code == 2 and out == ""
    assert err == "schema error: $.eps: unknown key\n"


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "--complex", "/nonexistent.json")
    assert code == 2
    assert "schema error" in err


# --- exit code 1: well-formed input failing a law ----------------------------


@pytest.fixture
def lawless_category(tmp_path):
    # type-correct table where composing with the identity moves f to g
    return write(tmp_path, "cat.json", {
        "objects": ["x", "y"],
        "arrows": [
            {"id": "ix", "dom": "x", "cod": "x"},
            {"id": "iy", "dom": "y", "cod": "y"},
            {"id": "f", "dom": "x", "cod": "y"},
            {"id": "g", "dom": "x", "cod": "y"},
        ],
        "identities": {"x": "ix", "y": "iy"},
        "compose": [
            ["ix", "ix", "ix"], ["iy", "iy", "iy"],
            ["f", "ix", "g"], ["g", "ix", "g"],
            ["iy", "f", "f"], ["iy", "g", "g"],
        ],
    })


def test_law_failure_exits_1(lawless_category, capsys):
    code, out, err = run(capsys, "validate", "--category", lawless_category)
    assert code == 1 and err == ""
    assert "FAIL" in out
    assert "fail=0" not in out.splitlines()[-1]


def test_broken_lali_file_exits_1(tmp_path, capsys):
    # eps0 = 0 cannot witness 1 - f0.g on the second generator
    lali = write(tmp_path, "lali.json", {
        "module": {
            "complex": {"degrees": {"0": 2}},
            "action": {"0": [[1, 0, 0, 0], [0, 1, 0, 0]]},
            "name": "B",
        },
        "g": {"0": [[1, 0]]},
        "f0": {"0": [[1], [0]]},
        "eps0": {},
    })
    code, out, _ = run(capsys, "lift", "lali", "--builtin", "dual_numbers",
                       "--module", "ground", "--lali", lali)
    assert code == 1
    assert "EQ lali.homotopy" in out and "FAIL" in out
    assert "lali=" in out.splitlines()[1]


def test_lift_side_condition_is_a_fail_not_an_input_error(tmp_path, capsys):
    # the forced f_1 vanishes on the unit insertion iff eps0 . f0 = 0,
    # and eps0 . f0 is not zero
    lali = write(tmp_path, "side.json", SIDE_BROKEN_LALI)
    code, out, err = run(capsys, "lift", "lali", "--trunc", "2",
                         "--lali", lali)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[-3:] == [
        "EQ lift.reduced @ M->free f_1 : FAIL(lhs=GradedMap(deg=1,"
        " {0: (0,0)=1}), rhs=0)",
        "EQ lift.reduced @ M->free : FAIL(lhs=1 failing, rhs=0)",
        "SUMMARY: checks=11 pass=6 fail=5 exempt=0"]
    assert not any(line.startswith("TABLE") for line in lines)


def test_factor_side_condition_is_a_fail_not_an_input_error(tmp_path, capsys):
    # the forced stage k_0 = act . T f0 restricts to f0 on the unit
    # insertion, and eps0 . f0 is not zero
    lali = write(tmp_path, "side.json", SIDE_BROKEN_LALI)
    code, out, err = run(capsys, "factor", "ulali", "--trunc", "3",
                         "--lali", lali)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines.index(
        "EQ factor.reduced @ M->free n=1 : FAIL(lhs=GradedMap(deg=1,"
        " {0: (0,0)=1}), rhs=0)") + 1 == lines.index(
        "EQ factor.reduced @ M->free : FAIL(lhs=1 failing, rhs=0)")
    assert lines[-1] == "SUMMARY: checks=20 pass=13 fail=6 exempt=1"


def test_non_chain_gradedmap_exits_1(tmp_path, capsys):
    # a degree-0 map C -> C that does not commute with d: C_1 -> C_0
    cx = {"degrees": {"0": 1, "1": 1}, "boundary": {"1": [[1]]}}
    g = write(tmp_path, "g.json", {"src": cx, "dst": cx,
                                   "matrices": {"0": [[1]]}})
    code, out, _ = run(capsys, "validate", "--gradedmap", g)
    assert code == 1
    line, = [ln for ln in out.splitlines() if ln.startswith("EQ ")]
    assert line.startswith("EQ gradedmap.chain @ g.json : FAIL(lhs=deg=0 D=")
    assert line.endswith(", rhs=deg=0 D=0)")


def test_relabelled_canonical_span_fails_canonical_reach(monkeypatch, capsys):
    """Each canonical span is built with its apex cyclically relabelled.
    It is isomorphic to the true one, so a search for a span map between
    it and a span could still succeed; but phi of a span's left leg is
    no span map out of it, and canonical.reach FAILs with phi and the
    relabelled span as its sides.  The other four families PASS."""
    import weakmaps.spans as spans
    from weakmaps.awfs import PSplitEpiAwfs
    from weakmaps.fincat import FinSetCategory, canonical_set, coreader_comonad

    shifted = apex_shifted(spans.kleisli_to_span)
    monkeypatch.setattr(spans, "kleisli_to_span", shifted)
    code, out, _ = run(capsys, "weakmaps", "compare", "--A", "1", "--B", "2",
                       "--bound", "3")
    assert code == 1
    eqs = [ln for ln in out.splitlines() if ln.startswith("EQ ")]
    *items, agg = [ln for ln in eqs if ln.startswith("EQ canonical.reach @ ")]
    assert [ln for ln in eqs if not ln.startswith("EQ canonical.reach @ ")] == [
        "EQ api.kappa @ 90 spans cross-checked : PASS",
        "EQ roundtrip @ 4 co-Kleisli arrows : PASS",
        "EQ class.count @ apex<=3 : PASS",
        "EQ kappa.invariant @ 388 one-step maps : PASS"]
    assert agg == ("EQ canonical.reach @ 90 spans within apex<=3"
                   " : FAIL(lhs=56 failing, rhs=0)")
    cat = FinSetCategory()
    aw = PSplitEpiAwfs(cat, coreader_comonad(cat, canonical_set(2, "s")))
    wm = spans.WeakMapCategory(aw)
    by_repr = {repr(s): s for s in spans.enumerate_spans(
        aw, canonical_set(1, "a"), canonical_set(2, "b"), 3)}
    assert len(items) == 56
    for ln in items:
        subject, sides = ln.removeprefix("EQ canonical.reach @ ").split(
            " : FAIL(lhs=")
        s = by_repr[subject]
        assert sides == (f"{wm.phi(s.left).under!r}, rhs="
                         f"{shifted(wm, spans.span_to_kleisli(wm, s))!r})")
    assert not any(" object at 0x" in ln for ln in out.splitlines())


def test_failing_compare_report_prints_no_object_address(monkeypatch, capsys):
    """A failing canonical.reach item names its span, whose algebra leg
    holds the AWFS; the report prints no address of it, so two runs of
    the same failing command print the same report."""
    import weakmaps.spans as spans

    monkeypatch.setattr(spans, "span_to_kleisli",
                        kappa_swapped(spans.span_to_kleisli))
    argv = ("weakmaps", "compare", "--A", "2", "--B", "2", "--bound", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert any(ln.startswith("EQ canonical.reach @ ASpan(")
               for ln in out.splitlines())
    assert [ln for ln in out.splitlines() if " object at 0x" in ln] == []
    assert run(capsys, *argv) == (1, out, "")


def test_cli_imports_only_compare_hom_from_spans():
    """The weak-map census, canonical reach included, lives in
    spans.compare_hom: cli.py takes nothing else from spans, so span
    enumeration and canonical spans stay out of the CLI."""
    tree = ast.parse(Path(weakmaps.cli.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["weakmaps" if node.level else "",
                                            node.module]))
            names = [a.name for a in node.names]
            if module == "weakmaps.spans":
                imported += names
            elif module == "weakmaps" and "spans" in names:
                imported.append("the spans module")
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names
                         if a.name.startswith("weakmaps.spans")]
    assert imported == ["compare_hom"], imported


# --- the parser: every help screen pinned -------------------------------------

# command words -> md5 of its `--help` screen at 80 columns
HELP_MD5 = [
    ("", "4e2b7c375a5203f8272125ecc0ec7f7b"),
    ("validate", "934167afeba594a486005550cbb9fc01"),
    ("awfs", "2439cdfb794c8a6c283583c77fe10331"),
    ("awfs check", "7eaab3f6c28ca45e46c39422471cd4f4"),
    ("weakmaps compare", "a844fd1c89dc3bc898463d91316d80b5"),
    ("bar resolve", "bd8e5edd75196513a6b62ad6c8dd2e01"),
    ("dg check", "ace830184b91a11e32979883c35469f7"),
    ("lift lali", "67c62d5d0dc3100a1b439d08a3e4651b"),
    ("factor ulali", "19dc6c4506abdb7a061a4334d6253178"),
]


@pytest.mark.parametrize("words,md5", HELP_MD5, ids=[w or "weakmaps" for w, _ in HELP_MD5])
def test_help_screen_frozen(monkeypatch, capsys, words, md5):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args([*words.split(), "--help"])
    assert exit_.value.code == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == md5


# --- the README stays in step with the parser --------------------------------

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_command_lines_parse():
    block = README.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("weakmaps ")]
    assert len(lines) >= 8
    for ln in lines:
        build_parser().parse_args(shlex.split(ln)[1:])


def test_readme_builtin_kinds_load():
    kinds = re.findall(r'`\{"kind": "(\w+)"\}`', README)
    assert {"dual_numbers", "ground"} <= set(kinds)
    alg = load_algebra({"kind": "dual_numbers"})
    for kind in kinds:
        if kind in ("ground", "free"):
            load_module({"kind": kind}, alg)
        else:
            load_algebra({"kind": kind})
