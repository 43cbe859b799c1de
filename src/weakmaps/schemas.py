"""JSON instance-file loaders.

Every loader takes already-parsed JSON data plus a position prefix and
either returns a validated in-memory object or raises SchemaError with a
JSON-path style location.  Shape problems (wrong keys, non-rational
entries, mismatched matrix sizes, d.d != 0) are schema errors; algebraic
law failures are left to the validators so they show up as FAIL lines
rather than parse errors.

Rational entries are JSON integers or strings "p/q"; floats are rejected
to keep the arithmetic exact.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .bar import BarError, DgAlgebra, DgModule, builtin_algebra, builtin_module
from .dg import ChainComplex, DgError, GradedMap, tensor_complex, unit_complex
from .fincat import (
    ComonadData,
    FinSetCategory,
    FunctorData,
    MonadData,
    SchemaError,
    TableCategory,
    coreader_comonad,
    exception_monad,
    identity_comonad,
    identity_monad,
    json_names,
    json_string,
)


def load_file(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise SchemaError(f"{path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise SchemaError(
            f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e


def _dict(data, where):
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected an object")
    return data


def _fraction(v, where) -> Fraction:
    if isinstance(v, bool):
        raise SchemaError(f"{where}: expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"{where}: not a rational: {v!r}") from None
    raise SchemaError(f"{where}: expected an integer or 'p/q' string")


def _degree(k, where) -> int:
    """An integer key in its one spelling: "01", "+1" or " 1" would
    alias "1", and a later alias would silently replace an earlier one."""
    try:
        deg = int(k)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: key {k!r} is not an integer") from None
    if str(deg) != k:
        raise SchemaError(f"{where}: key {k!r} is not written as {str(deg)!r}")
    return deg


def _matrix(rows, where):
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SchemaError(f"{where}: expected a list of rows")
    width = {len(r) for r in rows}
    if len(width) > 1:
        raise SchemaError(f"{where}: ragged rows")
    return tuple(
        tuple(_fraction(v, f"{where}[{i}][{j}]") for j, v in enumerate(r))
        for i, r in enumerate(rows))


def _mats(data, where, shape):
    """Blocks keyed by degree; shape(k) is the (rows, cols) of degree k,
    and a degree with a zero side is outside the support."""
    out = {}
    for k, rows in _dict(data, where).items():
        deg = _degree(k, where)
        m = _matrix(rows, f"{where}.{k}")
        want = shape(deg)
        if 0 in want:
            raise SchemaError(f"{where}.{k}: degree {deg} is outside the support")
        got = (len(m), len(m[0]) if m else 0)
        if got != want:
            raise SchemaError(f"{where}.{k}: block has the wrong shape"
                              f" {got[0]}x{got[1]}, expected {want[0]}x{want[1]}")
        out[deg] = m
    return out


def load_complex(data, where="$") -> ChainComplex:
    data = _dict(data, where)
    degs = _dict(data.get("degrees"), f"{where}.degrees")
    dims = {}
    for k, v in degs.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise SchemaError(f"{where}.degrees.{k}: expected a dimension >= 0")
        dims[_degree(k, f"{where}.degrees")] = v
    bnd = _mats(data.get("boundary", {}), f"{where}.boundary",
                lambda k: (dims.get(k - 1, 0), dims.get(k, 0)))
    try:
        return ChainComplex(dims, bnd)
    except DgError as e:
        raise SchemaError(f"{where}: {e}") from e


def _gmap(data, src, dst, where, deg=0) -> GradedMap:
    return GradedMap(src, dst, deg, _mats(
        data, where, lambda k: (dst.dim(k + deg), src.dim(k))))


def load_gradedmap(data, where="$") -> GradedMap:
    """Self-contained map file: {src, dst, degree, matrices}."""
    data = _dict(data, where)
    src = load_complex(data.get("src"), f"{where}.src")
    dst = load_complex(data.get("dst"), f"{where}.dst")
    deg = data.get("degree", 0)
    if not isinstance(deg, int) or isinstance(deg, bool):
        raise SchemaError(f"{where}.degree: expected an integer")
    return _gmap(data.get("matrices", {}), src, dst, f"{where}.matrices", deg)


def load_algebra(data, where="$") -> DgAlgebra:
    data = _dict(data, where)
    if "kind" in data:
        kind = data["kind"]
        if kind == "exterior" and data.get("gen_degree", 1) != 1:
            raise SchemaError(
                f"{where}.gen_degree: only a degree-1 generator is supported")
        try:
            return builtin_algebra(kind)
        except BarError as e:
            raise SchemaError(f"{where}.kind: {e}") from e
    cx = load_complex(data.get("complex"), f"{where}.complex")
    unit = _gmap(data.get("unit", {}), unit_complex(), cx, f"{where}.unit")
    # mult columns follow the tensor basis order (i, j) -> i*dim + j
    mult = _gmap(data.get("mult", {}), tensor_complex(cx, cx), cx,
                 f"{where}.mult")
    try:
        return DgAlgebra(cx, unit, mult, name=data.get("name", "A"))
    except BarError as e:
        raise SchemaError(f"{where}: {e}") from e


def load_module(data, alg: DgAlgebra, where="$") -> DgModule:
    data = _dict(data, where)
    if "kind" in data:
        try:
            return builtin_module(alg, data["kind"])
        except BarError as e:
            raise SchemaError(f"{where}.kind: {e}") from e
    cx = load_complex(data.get("complex"), f"{where}.complex")
    act = _gmap(data.get("action", {}), tensor_complex(alg.cx, cx), cx,
                f"{where}.action")
    try:
        return DgModule(alg, cx, act, name=data.get("name", "M"))
    except BarError as e:
        raise SchemaError(f"{where}: {e}") from e


def load_lali(data, alg: DgAlgebra, mod: DgModule, where="$"):
    """Contraction file {module, g, f0, eps0} onto `mod`: the module
    entry describes the source B, g: B -> M and f0: M -> B are degree 0,
    eps0: B -> B is degree 1.  Returns (modB, g, f0, eps0); the lali
    equations themselves are left to the validators."""
    data = _dict(data, where)
    modB = load_module(data.get("module"), alg, f"{where}.module")
    g = _gmap(data.get("g", {}), modB.cx, mod.cx, f"{where}.g")
    f0 = _gmap(data.get("f0", {}), mod.cx, modB.cx, f"{where}.f0")
    eps0 = _gmap(data.get("eps0", {}), modB.cx, modB.cx, f"{where}.eps0", 1)
    return modB, g, f0, eps0


def load_category(data, where="$") -> TableCategory:
    if where != "$":
        # from_dict reports positions relative to its own root
        data = _dict(data, where)
    return TableCategory.from_dict(data)


def _table_fn(table, domain, where):
    table = _dict(table, where)
    missing = [x for x in domain if x not in table]
    if missing:
        raise SchemaError(f"{where}: missing entry for {missing[0]!r}")
    for k, v in table.items():
        json_string(v, f"{where}.{k}")
    return table


def _load_functor(data, cat: TableCategory, where) -> FunctorData:
    if not isinstance(cat, TableCategory):
        raise SchemaError(f"{where}: a table functor needs a table category"
                          " (--category)")
    data = _dict(data, where)
    omap = _table_fn(data.get("obj_map"), cat.objects, f"{where}.obj_map")
    for o, v in omap.items():
        if v not in cat.objects:
            raise SchemaError(f"{where}.obj_map.{o}: unknown object {v!r}")
    amap = _table_fn(data.get("arr_map"), cat.arrows, f"{where}.arr_map")
    for a, v in amap.items():
        if v not in cat.arrows:
            raise SchemaError(f"{where}.arr_map.{a}: unknown arrow {v!r}")
        dom, cod = cat.arrows[a]
        want = (omap[dom], omap[cod])
        if cat.arrows[v] != want:
            raise SchemaError(
                f"{where}.arr_map.{a}: image has endpoints "
                f"{cat.arrows[v]}, expected {want}")
    return FunctorData(omap.__getitem__, amap.__getitem__,
                       data.get("name", "F"))


def _obj_arrows(data, cat, where, ends):
    """Per-object arrow table with endpoint shapes given by `ends`."""
    table = _table_fn(data, cat.objects, where)
    for o, a in table.items():
        if a not in cat.arrows:
            raise SchemaError(f"{where}.{o}: unknown arrow {a!r}")
        want = ends(o)
        if cat.arrows[a] != want:
            raise SchemaError(
                f"{where}.{o}: {a!r} has endpoints {cat.arrows[a]}, "
                f"expected {want}")
    return table


def load_comonad(data, cat, where="$") -> ComonadData:
    data = _dict(data, where)
    if "kind" in data:
        return _builtin_effect(data, cat, where, comonad=True)
    fun = _load_functor(data.get("functor"), cat, f"{where}.functor")
    counit = _obj_arrows(data.get("counit"), cat, f"{where}.counit",
                         lambda o: (fun.obj(o), o))
    comult = _obj_arrows(data.get("comult"), cat, f"{where}.comult",
                         lambda o: (fun.obj(o), fun.obj(fun.obj(o))))
    return ComonadData(fun, counit.__getitem__, comult.__getitem__,
                       data.get("name", "P"))


def load_monad(data, cat, where="$") -> MonadData:
    data = _dict(data, where)
    if "kind" in data:
        return _builtin_effect(data, cat, where, comonad=False)
    fun = _load_functor(data.get("functor"), cat, f"{where}.functor")
    unit = _obj_arrows(data.get("unit"), cat, f"{where}.unit",
                       lambda o: (o, fun.obj(o)))
    mult = _obj_arrows(data.get("mult"), cat, f"{where}.mult",
                       lambda o: (fun.obj(fun.obj(o)), fun.obj(o)))
    return MonadData(fun, unit.__getitem__, mult.__getitem__,
                     data.get("name", "T"))


def _labels(data, key, where):
    if not data.get(key):
        raise SchemaError(f"{where}.{key}: expected a nonempty string list")
    return json_names(data[key], f"{where}.{key}")


def _builtin_effect(data, cat, where, comonad):
    kind = data["kind"]
    if kind == "identity":
        return identity_comonad(cat) if comonad else identity_monad(cat)
    if comonad and kind == "coreader":
        _sets_only(cat, where)
        return coreader_comonad(cat, _labels(data, "S", where))
    if not comonad and kind == "exception":
        _sets_only(cat, where)
        return exception_monad(cat, _labels(data, "E", where))
    want = "identity|coreader" if comonad else "identity|exception"
    raise SchemaError(f"{where}.kind: unknown builtin {kind!r} (expected {want})")


def _sets_only(cat, where):
    if not isinstance(cat, FinSetCategory):
        raise SchemaError(
            f"{where}: this builtin is only defined over finite sets")
