"""Loaders turn JSON payloads into validated structures or positioned errors."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

from weakmaps.awfs import fragment_arrows
from weakmaps.cli import _comonad_spec
from weakmaps.dg import is_chain_map
from weakmaps.fincat import FinSetCategory, finset_fragment, validate_category
from weakmaps.ratmat import mat
from weakmaps.schemas import (
    SchemaError,
    load_algebra,
    load_category,
    load_comonad,
    load_complex,
    load_file,
    load_gradedmap,
    load_lali,
    load_module,
    load_monad,
)

FIN = FinSetCategory()


def err(excinfo):
    return str(excinfo.value)


# --- complexes and graded maps ----------------------------------------------


def test_complex_happy_path():
    cx = load_complex({"degrees": {"0": 2, "1": 1},
                       "boundary": {"1": [["1/2"], [3]]}})
    assert cx.dims == {0: 2, 1: 1}
    assert cx.boundary(1) == mat([[Fraction(1, 2)], [Fraction(3)]])


def test_complex_rejects_boundary_square():
    with pytest.raises(SchemaError, match=r"^\$: d\.d != 0 out of degree 2$"):
        load_complex({"degrees": {"0": 1, "1": 1, "2": 1},
                      "boundary": {"1": [[1]], "2": [[1]]}})


def test_complex_rejects_bad_dimension():
    with pytest.raises(SchemaError, match=r"degrees\.0"):
        load_complex({"degrees": {"0": -1}})
    with pytest.raises(SchemaError, match=r"degrees\.0"):
        load_complex({"degrees": {"0": True}})


def test_fraction_parsing_is_strict():
    base = {"degrees": {"0": 1, "1": 1}}
    with pytest.raises(SchemaError, match="boolean"):
        load_complex({**base, "boundary": {"1": [[True]]}})
    with pytest.raises(SchemaError, match="integer or 'p/q'"):
        load_complex({**base, "boundary": {"1": [[0.5]]}})
    with pytest.raises(SchemaError, match="not a rational"):
        load_complex({**base, "boundary": {"1": [["1/0"]]}})


def test_matrix_rejects_ragged_rows():
    with pytest.raises(SchemaError, match="ragged"):
        load_complex({"degrees": {"0": 2, "1": 2},
                      "boundary": {"1": [[1, 0], [1]]}})


def test_gradedmap_roundtrip():
    g = load_gradedmap({
        "src": {"degrees": {"0": 1}},
        "dst": {"degrees": {"0": 1}},
        "degree": 0,
        "matrices": {"0": [["2/3"]]},
    })
    assert g.deg == 0 and is_chain_map(g)
    with pytest.raises(SchemaError, match=r"\$\.degree"):
        load_gradedmap({"src": {"degrees": {}}, "dst": {"degrees": {}},
                        "degree": "up"})


def test_blocks_outside_the_support_are_rejected():
    with pytest.raises(SchemaError, match=r"\$\.boundary\.7: degree 7 is outside"):
        load_complex({"degrees": {"0": 1}, "boundary": {"7": [[1]]}})
    with pytest.raises(SchemaError, match=r"\$\.matrices\.5: degree 5 is outside"):
        load_gradedmap({"src": {"degrees": {"0": 1}}, "dst": {"degrees": {"0": 1}},
                        "matrices": {"5": [[7]]}})
    # the target degree k + deg must be supported too
    with pytest.raises(SchemaError, match=r"\$\.matrices\.0: degree 0 is outside"):
        load_gradedmap({"src": {"degrees": {"0": 1}}, "dst": {"degrees": {"0": 1}},
                        "degree": 1, "matrices": {"0": [[0]]}})


def test_blocks_of_the_wrong_shape_are_rejected_even_when_zero():
    with pytest.raises(SchemaError, match=r"\$\.matrices\.0: .*wrong shape 1x3, expected 1x1"):
        load_gradedmap({"src": {"degrees": {"0": 1}}, "dst": {"degrees": {"0": 1}},
                        "matrices": {"0": [[0, 0, 0]]}})
    with pytest.raises(SchemaError, match=r"\$\.boundary\.1: .*wrong shape 1x2, expected 2x1"):
        load_complex({"degrees": {"0": 2, "1": 1}, "boundary": {"1": [[0, 0]]}})


def test_zero_blocks_of_the_right_shape_are_accepted():
    cx = load_complex({"degrees": {"0": 2, "1": 1}, "boundary": {"1": [[0], [0]]}})
    assert cx.d == {}
    g = load_gradedmap({"src": {"degrees": {"0": 1}}, "dst": {"degrees": {"0": 2}},
                        "matrices": {"0": [[0], [0]]}})
    assert g.is_zero()


@pytest.mark.parametrize("key", ["01", "+0", " 1", "1 ", "-0", "1_0"])
def test_aliased_degree_keys_are_rejected(key):
    # int(key) would accept each of these and let it overwrite the
    # block or dimension stored under its canonical spelling
    d = int(key)
    one = {str(d): 1}
    said = re.escape(f"key {key!r} is not written as '{d}'")
    with pytest.raises(SchemaError, match=rf"^\$\.degrees: {said}"):
        load_complex({"degrees": {**one, key: 1}})
    with pytest.raises(SchemaError, match=rf"^\$\.boundary: {said}"):
        load_complex({"degrees": {**one, str(d - 1): 1},
                      "boundary": {str(d): [[1]], key: [[0]]}})
    with pytest.raises(SchemaError, match=rf"^\$\.matrices: {said}"):
        load_gradedmap({"src": {"degrees": one}, "dst": {"degrees": one},
                        "matrices": {str(d): [[5]], key: [[0]]}})


def test_canonical_negative_degree_keys_load():
    cx = load_complex({"degrees": {"-1": 1, "0": 1}, "boundary": {"0": [[2]]}})
    assert cx.dims == {-1: 1, 0: 1} and cx.boundary(0) == mat([[2]])


# --- algebras, modules, lalis -----------------------------------------------


def test_builtin_algebra_kinds():
    for kind in ("rationals", "dual_numbers", "exterior"):
        assert load_algebra({"kind": kind}).validate().ok
    assert load_algebra({"kind": "exterior", "gen_degree": 1}).validate().ok
    with pytest.raises(SchemaError, match="degree-1 generator"):
        load_algebra({"kind": "exterior", "gen_degree": 2})
    # gen_degree means something only for exterior, and only as the integer 1
    for kind, gen in (("dual_numbers", 5), ("exterior", True), ("exterior", 1.0)):
        with pytest.raises(SchemaError, match=r"\$\.gen_degree"):
            load_algebra({"kind": kind, "gen_degree": gen})
    with pytest.raises(SchemaError, match=r"\$\.kind"):
        load_algebra({"kind": "octonions"})


HAND_DUAL = {
    "complex": {"degrees": {"0": 2}},
    "unit": {"0": [[1], [0]]},
    "mult": {"0": [[1, 0, 0, 0], [0, 1, 1, 0]]},
    "name": "isoK",
}


def test_hand_written_algebra_validates():
    alg = load_algebra(HAND_DUAL)
    assert alg.validate().ok
    assert alg.name == "isoK"


def test_module_action_shape_is_schema_checked():
    alg = load_algebra({"kind": "dual_numbers"})
    assert load_module({"kind": "free"}, alg).validate().ok
    with pytest.raises(SchemaError, match=r"\$\.action.*shape"):
        load_module({"complex": {"degrees": {"0": 1}},
                     "action": {"0": [[1, 0, 0]]}}, alg)


def test_lali_loader_endpoints():
    alg = load_algebra({"kind": "dual_numbers"})
    mod = load_module({"kind": "ground"}, alg)
    modB, g, f0, eps0 = load_lali({
        "module": {"complex": {"degrees": {"0": 2}},
                   "action": {"0": [[1, 0, 0, 0], [0, 1, 0, 0]]}},
        "g": {"0": [[1, 0]]},
        "f0": {"0": [[1], [0]]},
        "eps0": {},
    }, alg, mod)
    assert g.src == modB.cx and g.dst == mod.cx
    assert f0.src == mod.cx and f0.dst == modB.cx
    assert eps0.deg == 1 and eps0.is_zero()


# --- categories and effect data ----------------------------------------------


GOOD_CAT = {
    "objects": ["x", "y"],
    "arrows": [
        {"id": "ix", "dom": "x", "cod": "x"},
        {"id": "iy", "dom": "y", "cod": "y"},
        {"id": "f", "dom": "x", "cod": "y"},
    ],
    "identities": {"x": "ix", "y": "iy"},
    "compose": [["ix", "ix", "ix"], ["iy", "iy", "iy"],
                ["f", "ix", "f"], ["iy", "f", "f"]],
}


def test_category_loads_and_validates():
    cat = load_category(GOOD_CAT)
    assert validate_category(cat, cat.objects).ok
    assert cat.compose("iy", "f") == "f"


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d["arrows"].append({"id": "f", "dom": "x", "cod": "x"}),
     "duplicate arrow id"),
    (lambda d: d["arrows"].append({"id": "h", "dom": "z", "cod": "x"}),
     "unknown object"),
    (lambda d: d["compose"].append(["f", "iy", "f"]), "not composable"),
    (lambda d: d["compose"].append(["f", "ix", "f"]),
     r"\$\.compose\[4\]: second row for 'f' after 'ix'"),
    (lambda d: d["compose"].pop(), r"\$\.compose: no row for 'iy' after 'f'"),
    (lambda d: d["identities"].pop("y"), "missing identity"),
])
def test_category_schema_errors(mutate, fragment):
    data = {
        "objects": list(GOOD_CAT["objects"]),
        "arrows": [dict(a) for a in GOOD_CAT["arrows"]],
        "identities": dict(GOOD_CAT["identities"]),
        "compose": [list(r) for r in GOOD_CAT["compose"]],
    }
    mutate(data)
    with pytest.raises(SchemaError, match=fragment):
        load_category(data)


def test_builtin_effects_respect_direction():
    com = load_comonad({"kind": "coreader", "S": ["s0", "s1"]}, FIN)
    assert com.functor.obj(("a",)) == ("(a,s0)", "(a,s1)")
    mon = load_monad({"kind": "exception", "E": ["e"]}, FIN)
    assert mon.functor.obj(("a",)) == ("L:a", "R:e")
    assert load_comonad({"kind": "identity"}, FIN).functor.obj(("a",)) == ("a",)
    assert load_monad({"kind": "identity"}, FIN).functor.obj(("a",)) == ("a",)
    with pytest.raises(SchemaError, match="kind"):
        load_monad({"kind": "coreader", "S": ["s0"]}, FIN)
    with pytest.raises(SchemaError, match="kind"):
        load_comonad({"kind": "exception", "E": ["e"]}, FIN)


def test_comonad_spec_builds_what_the_loader_builds():
    """coreader_comonad(...) and exception_monad(...) are called in src/
    only from schemas.py and once from cli.py, where `--comonad SPEC`
    builds its comonad without loading schemas.py.  The spec must build
    what the loader builds from the same builtin: the same name, objects,
    arrows, counit and comultiplication on the size <= 2 fragment."""
    src = Path(__file__).resolve().parents[1] / "src"
    calls = [path.name
             for path in sorted(src.rglob("*.py")) if path.name != "schemas.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and {"coreader_comonad", "exception_monad"} & {
                 getattr(node.func, "id", None), getattr(node.func, "attr", None)}]
    assert calls == ["cli.py"], calls
    for spec, data in [("identity", {"kind": "identity"}),
                       ("coreader:S=1", {"kind": "coreader", "S": ["s0"]}),
                       ("coreader:S=3", {"kind": "coreader", "S": ["s0", "s1", "s2"]})]:
        p, q = _comonad_spec(FIN, spec), load_comonad(data, FIN)
        assert p.name == q.name, spec
        for o in finset_fragment(2):
            assert (p.functor.obj(o), p.counit(o), p.comult(o)) == (
                q.functor.obj(o), q.counit(o), q.comult(o)), (spec, o)
        for f in fragment_arrows(FIN, 2):
            assert p.functor.arr(f) == q.functor.arr(f), (spec, f)


def test_builtin_effects_need_computed_sets():
    cat = load_category(GOOD_CAT)
    with pytest.raises(SchemaError, match="finite sets"):
        load_comonad({"kind": "coreader", "S": ["s0"]}, cat)


def test_load_file_errors(tmp_path):
    with pytest.raises(SchemaError, match="nope.json"):
        load_file(str(tmp_path / "nope.json"))
    p = tmp_path / "trunc.json"
    p.write_text('{"a": [1,')
    with pytest.raises(SchemaError, match=r"trunc\.json:1:\d+"):
        load_file(str(p))
