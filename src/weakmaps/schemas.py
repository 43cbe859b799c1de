"""JSON instance-file loaders.

Every loader takes already-parsed JSON data plus a position prefix and
either returns a validated in-memory object or raises SchemaError with a
JSON-path style location.  Shape problems (wrong keys, non-rational
entries, mismatched matrix sizes, d.d != 0) are schema errors; algebraic
law failures are left to the validators so they show up as FAIL lines
rather than parse errors.

Rational entries are JSON integers or strings "p/q"; floats are rejected
to keep the arithmetic exact.  Each loader imports the layer whose
objects it builds (`fincat`, `dg` or `bar`), so a run loads only the
layers its input needs.
"""

from __future__ import annotations

import itertools

from . import SchemaError


def load_file(path: str):
    import json
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise SchemaError(f"{path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise SchemaError(
            f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e


def _dict(data, where, keys=None):
    """`data`, which must be a JSON object with no key outside `keys`
    (if given): a misspelt key would silently drop its data."""
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected an object")
    if keys is not None:
        for key in data:
            if key not in keys:
                raise SchemaError(f"{where}.{key}: unknown key")
    return data


def _string(v, where) -> str:
    if not isinstance(v, str):
        raise SchemaError(f"{where}: expected a string, got {v!r}")
    return v


def _names(v, where) -> tuple:
    """A JSON list of distinct strings, as a tuple."""
    if not isinstance(v, list) or not all(isinstance(s, str) for s in v):
        raise SchemaError(f"{where}: expected a list of strings")
    twice = [s for s in v if v.count(s) > 1]
    if twice:
        raise SchemaError(f"{where}: {twice[0]!r} is listed twice")
    return tuple(v)


def _fraction(v, where) -> Fraction:
    from fractions import Fraction
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
    from .ratmat import mat
    return mat([[_fraction(v, f"{where}[{i}][{j}]") for j, v in enumerate(r)]
                for i, r in enumerate(rows)])


def _mats(data, where, shape_of):
    """Blocks keyed by degree; shape_of(k) is the (rows, cols) of degree k,
    and a degree with a zero side is outside the support."""
    from .ratmat import shape
    out = {}
    for k, rows in _dict(data, where).items():
        deg = _degree(k, where)
        m = _matrix(rows, f"{where}.{k}")
        want = shape_of(deg)
        if 0 in want:
            raise SchemaError(f"{where}.{k}: degree {deg} is outside the support")
        got = shape(m)
        if got != want:
            raise SchemaError(f"{where}.{k}: block has the wrong shape"
                              f" {got[0]}x{got[1]}, expected {want[0]}x{want[1]}")
        out[deg] = m
    return out


def load_complex(data, where="$") -> ChainComplex:
    from .dg import ChainComplex, DgError
    data = _dict(data, where, ("degrees", "boundary"))
    degs = _dict(data.get("degrees"), f"{where}.degrees")
    dims = {}
    for k, v in degs.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise SchemaError(f"{where}.degrees.{k}: expected a dimension >= 0")
        dims[_degree(k, f"{where}.degrees")] = v
    bnd = _mats(data.get("boundary", {}), f"{where}.boundary",
                lambda k: (dims.get(k - 1, 0), dims.get(k, 0)))
    try:
        cx = ChainComplex(dims, bnd)
        cx.check_square_zero()
    except DgError as e:
        raise SchemaError(f"{where}: {e}") from e
    return cx


def _gmap(data, src, dst, where, deg=0) -> GradedMap:
    from .dg import GradedMap
    return GradedMap(src, dst, deg, _mats(
        data, where, lambda k: (dst.dim(k + deg), src.dim(k))))


def load_gradedmap(data, where="$") -> GradedMap:
    """Self-contained map file: {src, dst, degree, matrices}."""
    data = _dict(data, where, ("src", "dst", "degree", "matrices"))
    src = load_complex(data.get("src"), f"{where}.src")
    dst = load_complex(data.get("dst"), f"{where}.dst")
    deg = data.get("degree", 0)
    if not isinstance(deg, int) or isinstance(deg, bool):
        raise SchemaError(f"{where}.degree: expected an integer")
    return _gmap(data.get("matrices", {}), src, dst, f"{where}.matrices", deg)


def load_algebra(data, where="$") -> DgAlgebra:
    from .bar import BarError, DgAlgebra, builtin_algebra
    from .dg import tensor_complex, unit_complex
    data = _dict(data, where)
    if "kind" in data:
        kind = data["kind"]
        _dict(data, where, ("kind", "gen_degree") if kind == "exterior" else ("kind",))
        gen = data.get("gen_degree", 1)
        if type(gen) is not int or gen != 1:
            raise SchemaError(
                f"{where}.gen_degree: only a degree-1 generator is supported")
        try:
            return builtin_algebra(kind)
        except BarError as e:
            raise SchemaError(f"{where}.kind: {e}") from e
    _dict(data, where, ("complex", "unit", "mult", "name"))
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
    from .bar import BarError, DgModule, builtin_module
    from .dg import tensor_complex
    data = _dict(data, where)
    if "kind" in data:
        try:
            return builtin_module(alg, _dict(data, where, ("kind",))["kind"])
        except BarError as e:
            raise SchemaError(f"{where}.kind: {e}") from e
    _dict(data, where, ("complex", "action", "name"))
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
    data = _dict(data, where, ("module", "g", "f0", "eps0"))
    modB = load_module(data.get("module"), alg, f"{where}.module")
    g = _gmap(data.get("g", {}), modB.cx, mod.cx, f"{where}.g")
    f0 = _gmap(data.get("f0", {}), mod.cx, modB.cx, f"{where}.f0")
    eps0 = _gmap(data.get("eps0", {}), modB.cx, modB.cx, f"{where}.eps0", 1)
    return modB, g, f0, eps0


def _object(objects, v, where) -> str:
    """`v`, which must name one of `objects`."""
    if _string(v, where) not in objects:
        raise SchemaError(f"{where}: unknown object {v!r}")
    return v


def _arrow(arrows, v, where, ends=None) -> str:
    """`v`, which must name one of `arrows`, with endpoints `ends` if given."""
    if _string(v, where) not in arrows:
        raise SchemaError(f"{where}: unknown arrow {v!r}")
    if ends is not None and arrows[v] != ends:
        raise SchemaError(
            f"{where}: {v!r} has endpoints {arrows[v]}, expected {ends}")
    return v


def load_category(data, where="$") -> TableCategory:
    from .fincat import TableCategory
    data = _dict(data, where, ("objects", "arrows", "identities", "compose"))
    objs = _names(data.get("objects"), f"{where}.objects")
    for key in ("arrows", "compose"):
        if not isinstance(data.get(key, []), list):
            raise SchemaError(f"{where}.{key}: expected a list")
    arrows = {}  # id -> (dom, cod)
    for i, a in enumerate(data.get("arrows", [])):
        at = f"{where}.arrows[{i}]"
        if not isinstance(a, dict) or not {"id", "dom", "cod"} <= a.keys():
            raise SchemaError(f"{at}: expected {{id, dom, cod}}")
        if _string(a["id"], f"{at}.id") in arrows:
            raise SchemaError(f"{at}.id: duplicate arrow id {a['id']!r}")
        arrows[a["id"]] = (_object(objs, a["dom"], f"{at}.dom"),
                           _object(objs, a["cod"], f"{at}.cod"))
    idents = _dict(data.get("identities", {}), f"{where}.identities")
    for o, i in idents.items():
        _object(objs, o, f"{where}.identities.{o}")
        _arrow(arrows, i, f"{where}.identities.{o}", (o, o))
    missing = [o for o in objs if o not in idents]
    if missing:
        raise SchemaError(f"{where}.identities: missing identity for {missing[0]!r}")
    comp = {}
    for i, row in enumerate(data.get("compose", [])):
        at = f"{where}.compose[{i}]"
        if not (isinstance(row, list) and len(row) == 3):
            raise SchemaError(f"{at}: expected [g, f, gf]")
        g = _arrow(arrows, row[0], f"{at}[0]")
        f = _arrow(arrows, row[1], f"{at}[1]")
        if arrows[f][1] != arrows[g][0]:
            raise SchemaError(f"{at}: {g!r} after {f!r} is not composable")
        if (g, f) in comp:
            raise SchemaError(f"{at}: second row for {g!r} after {f!r}")
        comp[g, f] = _arrow(arrows, row[2], f"{at}[2]",
                            (arrows[f][0], arrows[g][1]))
    for g, f in itertools.product(arrows, repeat=2):
        if arrows[f][1] == arrows[g][0] and (g, f) not in comp:
            raise SchemaError(f"{where}.compose: no row for {g!r} after {f!r}")
    return TableCategory(objs, arrows, idents, comp)


def _table_fn(table, domain, where):
    """A JSON object with one entry per name in `domain` and no other."""
    table = _dict(table, where, domain)
    missing = [x for x in domain if x not in table]
    if missing:
        raise SchemaError(f"{where}: missing entry for {missing[0]!r}")
    return table


def _load_functor(data, cat: TableCategory, where) -> FunctorData:
    from .fincat import FunctorData, TableCategory
    if not isinstance(cat, TableCategory):
        raise SchemaError(f"{where}: a table functor needs a table category"
                          " (--category)")
    data = _dict(data, where, ("obj_map", "arr_map", "name"))
    omap = _table_fn(data.get("obj_map"), cat.objects, f"{where}.obj_map")
    for o, v in omap.items():
        _object(cat.objects, v, f"{where}.obj_map.{o}")
    amap = _table_fn(data.get("arr_map"), cat.arrows, f"{where}.arr_map")
    for a, v in amap.items():
        dom, cod = cat.arrows[a]
        _arrow(cat.arrows, v, f"{where}.arr_map.{a}", (omap[dom], omap[cod]))
    return FunctorData(omap.__getitem__, amap.__getitem__,
                       data.get("name", "F"))


def _obj_arrows(data, cat, where, ends):
    """Per-object arrow table with endpoint shapes given by `ends`, as a
    function of the object."""
    table = _table_fn(data, cat.objects, where)
    for o, a in table.items():
        _arrow(cat.arrows, a, f"{where}.{o}", ends(o))
    return table.__getitem__


def load_comonad(data, cat, where="$") -> ComonadData:
    from .fincat import ComonadData
    data = _dict(data, where)
    if "kind" in data:
        return _builtin_effect(data, cat, where, comonad=True)
    _dict(data, where, ("functor", "counit", "comult", "name"))
    fun = _load_functor(data.get("functor"), cat, f"{where}.functor")
    counit = _obj_arrows(data.get("counit"), cat, f"{where}.counit",
                         lambda o: (fun.obj(o), o))
    comult = _obj_arrows(data.get("comult"), cat, f"{where}.comult",
                         lambda o: (fun.obj(o), fun.obj(fun.obj(o))))
    return ComonadData(fun, counit, comult, data.get("name", "P"))


def load_monad(data, cat, where="$") -> MonadData:
    from .fincat import MonadData
    data = _dict(data, where)
    if "kind" in data:
        return _builtin_effect(data, cat, where, comonad=False)
    _dict(data, where, ("functor", "unit", "mult", "name"))
    fun = _load_functor(data.get("functor"), cat, f"{where}.functor")
    unit = _obj_arrows(data.get("unit"), cat, f"{where}.unit",
                       lambda o: (o, fun.obj(o)))
    mult = _obj_arrows(data.get("mult"), cat, f"{where}.mult",
                       lambda o: (fun.obj(fun.obj(o)), fun.obj(o)))
    return MonadData(fun, unit, mult, data.get("name", "T"))


def _labels(data, key, where):
    """The label list `key` of a builtin, its only key besides `kind`."""
    if not _dict(data, where, ("kind", key)).get(key):
        raise SchemaError(f"{where}.{key}: expected a nonempty string list")
    return _names(data[key], f"{where}.{key}")


def _builtin_effect(data, cat, where, comonad):
    from .fincat import (coreader_comonad, exception_monad, identity_comonad,
                         identity_monad)
    kind = data["kind"]
    if kind == "identity":
        _dict(data, where, ("kind",))
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
    from .fincat import FinSetCategory
    if not isinstance(cat, FinSetCategory):
        raise SchemaError(
            f"{where}: this builtin is only defined over finite sets")
