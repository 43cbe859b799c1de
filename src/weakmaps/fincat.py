"""Finite categories with computable structure.

* FinSetCategory: objects are tuples of distinct element labels, arrows
  are tabulated total functions (`FinSetArrow` (dom, cod, idx), equal
  only to another arrow: a dict key).  Arrows are built by
  `tuple.__new__`, with no Python frame, and every composite index
  tuple is one C-level `itemgetter` gather.
  Hom-sets enumerate in lexicographic order of function graphs,
  coproducts are tagged unions (tags "L"/"R"), pullbacks are
  lexicographically ordered subsets of the product with a mediating-map
  solver.  It is the only backend that computes anything.
* Value types: every immutable record of the FinSet layers is a C tuple,
  a `Value` over a `namedtuple`.  Here: arrows, coproduct and pullback
  data, co-Kleisli arrows; in `awfs` and `spans`: algebras, spans,
  sketches and census results.  The functor, comonad and monad records
  stay plain mutable classes, since a tracer rebinds their callables.
* TableCategory: objects, arrows, identities and a composition table
  supplied explicitly, loaded by `schemas.load_category`.  It serves the
  validators only (`validate --category/--comonad/--monad`) and has no
  limits.

On top of either backend: functor / comonad / monad data, their law
validators, and the co-Kleisli category of a comonad.  The builtin
coreader comonad X x S and exception monad X + E live on FinSet; the
latter is built through `FinSetCategory.coproduct`, the one sum.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from operator import itemgetter

from . import InputError
from .report import CheckReport


class CategoryError(InputError):
    pass


def fmt_obj(x) -> str:
    if isinstance(x, tuple):
        return "{" + ",".join(x) + "}"
    return str(x)


def fmt_ends(dom, cod) -> str:
    return f"{fmt_obj(dom)} -> {fmt_obj(cod)}"


# ---------------------------------------------------------------------------
# FinSet backend


def fibres(values) -> dict:
    """{value: ascending positions holding it}.  Every constrained search
    over finite sets (sections, span maps, squares, pullbacks) picks each
    point's image from such a fibre."""
    out = {}
    for i, v in enumerate(values):
        out.setdefault(v, []).append(i)
    return out


class Value(tuple):
    """Base of the immutable value types: `class Name(Value, namedtuple(
    "Name", "field ...")): __slots__ = ()` holds no attributes, equals
    only a value of its own class and hashes as its tuple."""

    __slots__ = ()
    _hidden = ()  # fields left out of the repr, which failing items print

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    __ne__ = object.__ne__
    __hash__ = tuple.__hash__

    def __repr__(self):  # Name(field=value, ...)
        shown = (f"{n}={v!r}" for n, v in zip(self._fields, self) if n not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"


class FinSetArrow(Value, namedtuple("FinSetArrow", "dom cod idx")):
    """Total function between label tuples, as the `Value` (dom, cod, idx);
    idx[i] is the cod-position of dom[i].  It equals only another
    FinSetArrow, never the plain tuple it hashes like.  Hot paths build it
    with `tuple.__new__(FinSetArrow, (dom, cod, idx))`: no frame.
    """

    __slots__ = ()

    def __repr__(self):
        imgs = ",".join(self.cod[i] for i in self.idx)
        return f"{fmt_obj(self.dom)}->{fmt_obj(self.cod)}[{imgs}]"


class CoproductData(Value, namedtuple("CoproductData", "obj inl inr")):
    """Chosen coproduct: tagged union object, injections, copair and sum."""

    __slots__ = ()

    def copair(self, f: FinSetArrow, g: FinSetArrow) -> FinSetArrow:
        if f.cod != g.cod:
            raise CategoryError("copair legs must share a codomain")
        if f.dom != self.inl.dom or g.dom != self.inr.dom:
            raise CategoryError("copair legs do not match the coproduct summands")
        return tuple.__new__(FinSetArrow, (self.obj, f.cod, f.idx + g.idx))

    def plus(self, h: FinSetArrow, k: FinSetArrow, into: CoproductData) -> FinSetArrow:
        """h + k = [inl h, inr k] into the coproduct `into`: h's positions,
        then inr's positions gathered by k."""
        # identity first: objects are mostly shared tuples out of the caches
        a, b, c, d = self.inl.dom, self.inr.dom, into.inl.dom, into.inr.dom
        if h.dom is not a and h.dom != a or k.dom is not b and k.dom != b:
            raise CategoryError("plus legs do not start at the coproduct summands")
        if h.cod is not c and h.cod != c or k.cod is not d and k.cod != d:
            raise CategoryError("plus legs do not land in the target summands")
        ki, inr = k.idx, into.inr.idx
        right = itemgetter(*ki)(inr) if len(ki) > 1 else (inr[ki[0]],) if ki else ()
        return tuple.__new__(FinSetArrow, (self.obj, into.obj, h.idx + right))


class PullbackData(Value, namedtuple("PullbackData", "f g obj p1 p2")):
    """Chosen pullback of a cospan f, g: subset of the product, lex ordered."""

    __slots__ = ()

    def mediate(self, u: FinSetArrow, v: FinSetArrow) -> FinSetArrow:
        """The unique k with p1 k = u and p2 k = v; raises if the cone fails."""
        if u.dom != v.dom or u.cod != self.p1.cod or v.cod != self.p2.cod:
            raise CategoryError("cone legs must share a domain and end at f.dom, g.dom")
        spot = {(self.p1.idx[i], self.p2.idx[i]): i for i in range(len(self.obj))}
        idx = []
        for i in range(len(u.dom)):
            key = (u.idx[i], v.idx[i])
            if key not in spot:
                raise CategoryError(
                    f"cone does not commute at {u.dom[i]!r}: "
                    f"f(u(-)) != g(v(-)) there"
                )
            idx.append(spot[key])
        return FinSetArrow(u.dom, self.obj, tuple(idx))


class FinSetCategory:
    """Finite sets (tuples of distinct string labels) and all functions."""

    def identity(self, x) -> FinSetArrow:
        x = tuple(x)
        return FinSetArrow(x, x, tuple(range(len(x))))

    def dom(self, f):
        return f.dom

    def cod(self, f):
        return f.cod

    def compose(self, g: FinSetArrow, f: FinSetArrow) -> FinSetArrow:
        if f.cod is not g.dom and f.cod != g.dom:
            raise CategoryError(f"not composable: cod {f!r} != dom {g!r}")
        # one gather of g.idx by f.idx; `itemgetter` returns a bare item for
        # one position and refuses none, and a helper would cost a frame
        fi, gi = f.idx, g.idx
        idx = itemgetter(*fi)(gi) if len(fi) > 1 else (gi[fi[0]],) if fi else ()
        return tuple.__new__(FinSetArrow, (f.dom, g.cod, idx))

    def hom(self, a, b) -> list:
        a, b = tuple(a), tuple(b)
        if len(a) > 0 and len(b) == 0:
            return []
        return [
            tuple.__new__(FinSetArrow, (a, b, idx))
            for idx in itertools.product(range(len(b)), repeat=len(a))
        ]

    def initial(self):
        return ()

    def from_initial(self, x) -> FinSetArrow:
        return FinSetArrow((), tuple(x), ())

    def coproduct(self, a, b) -> CoproductData:
        """Built once per pair of objects; a plain method over a cached
        builder, so a tracer that wraps methods still counts every call."""
        return self._coproduct(tuple(a), tuple(b))

    @staticmethod
    @functools.cache
    def _coproduct(a, b) -> CoproductData:
        obj = tuple(f"L:{x}" for x in a) + tuple(f"R:{y}" for y in b)
        inl = FinSetArrow(a, obj, tuple(range(len(a))))
        inr = FinSetArrow(b, obj, tuple(range(len(a), len(obj))))
        return CoproductData(obj, inl, inr)

    def pullback(self, f: FinSetArrow, g: FinSetArrow) -> PullbackData:
        if f.cod != g.cod:
            raise CategoryError("pullback needs a cospan")
        over = fibres(g.idx)
        pairs = [(i, j) for i, x in enumerate(f.idx) for j in over.get(x, ())]
        obj = tuple(f"({f.dom[i]},{g.dom[j]})" for i, j in pairs)
        p1 = FinSetArrow(obj, f.dom, tuple(i for i, _ in pairs))
        p2 = FinSetArrow(obj, g.dom, tuple(j for _, j in pairs))
        return PullbackData(f, g, obj, p1, p2)


# ---------------------------------------------------------------------------
# Table backend


class TableCategory:
    def __init__(self, objects, arrows, identities, compose):
        self.objects = list(objects)
        self.arrows = dict(arrows)  # id -> (dom, cod)
        self.identities = dict(identities)  # obj -> id
        self.table = dict(compose)  # (g, f) -> g.f

    def identity(self, x):
        if x not in self.identities:
            raise CategoryError(f"unknown object identifier {x!r}")
        return self.identities[x]

    def dom(self, f):
        return self.arrows[f][0]

    def cod(self, f):
        return self.arrows[f][1]

    def compose(self, g, f):
        if self.arrows[f][1] != self.arrows[g][0]:
            raise CategoryError(f"not composable: {g!r} after {f!r}")
        key = (g, f)
        if key not in self.table:
            raise CategoryError(f"composite missing from table: {g!r} after {f!r}")
        return self.table[key]

    def hom(self, a, b):
        return sorted(i for i, (d, c) in self.arrows.items() if d == a and c == b)


# ---------------------------------------------------------------------------
# Functor / comonad / monad data


class FunctorData:
    """An endofunctor presented by callables (tables are wrapped the same way)."""

    def __init__(self, obj, arr, name="F"):
        self.obj = obj  # obj -> obj
        self.arr = arr  # arrow -> arrow
        self.name = name


class ComonadData:
    def __init__(self, functor: FunctorData, counit, comult, name="P"):
        self.functor = functor
        self.counit = counit  # obj -> arrow P(obj) -> obj
        self.comult = comult  # obj -> arrow P(obj) -> PP(obj)
        self.name = name


class MonadData:
    def __init__(self, functor: FunctorData, unit, mult, name="T"):
        self.functor = functor
        self.unit = unit  # obj -> arrow obj -> T(obj)
        self.mult = mult  # obj -> arrow TT(obj) -> T(obj)
        self.name = name


def identity_comonad(cat) -> ComonadData:
    f = FunctorData(lambda x: x, lambda a: a, "Id")
    return ComonadData(f, cat.identity, cat.identity, "Id")


def identity_monad(cat) -> MonadData:
    f = FunctorData(lambda x: x, lambda a: a, "Id")
    return MonadData(f, cat.identity, cat.identity, "Id")


def coreader_comonad(cat: FinSetCategory, s) -> ComonadData:
    """P(X) = X x S with counit the projection and comultiplication the
    duplication of the S coordinate.  Pair labels are "(x,s)"."""
    s = tuple(s)
    if not s:
        raise CategoryError("coreader comonad needs a nonempty label set")
    n, ks = len(s), range(len(s))
    blocks = []  # blocks[j] = (j*n, ..., j*n+n-1), grown to the largest cod seen

    @functools.cache
    def pobj(x):
        return tuple(f"({e},{t})" for e in x for t in s)

    def parr(f: FinSetArrow) -> FinSetArrow:
        # (x,t) goes to (f(x),t): position i*n+t maps to f.idx[i]*n+t, so
        # idx joins the gathered blocks of f.idx, each a tuple of known size
        while len(blocks) < len(f.cod):
            blocks.append(tuple(range(len(blocks) * n, len(blocks) * n + n)))
        fi = f.idx
        idx = (sum(itemgetter(*fi)(blocks), ()) if len(fi) > 1
               else blocks[fi[0]] if fi else ())
        return tuple.__new__(FinSetArrow, (pobj(f.dom), pobj(f.cod), idx))

    def counit(x):
        x = tuple(x)
        idx = tuple(i for i in range(len(x)) for _ in ks)
        return FinSetArrow(pobj(x), x, idx)

    def comult(x):
        x = tuple(x)
        # (x,t) goes to ((x,t),t): position (i*n+k) maps to (i*n+k)*n + k
        idx = tuple((i * n + k) * n + k for i in range(len(x)) for k in ks)
        return FinSetArrow(pobj(x), pobj(pobj(x)), idx)

    return ComonadData(FunctorData(pobj, parr, "(-)xS"), counit, comult, f"(-)x{fmt_obj(s)}")


def exception_monad(cat: FinSetCategory, e) -> MonadData:
    """T(X) = X + E through the chosen coproduct, labels "L:x" and "R:e",
    so E may reuse carrier names: eta = inl, mu = [id, inr] out of
    (X + E) + E, and T f = f + 1 = [inl f, inr]."""
    e = tuple(e)

    def tobj(x):
        return cat.coproduct(x, e).obj

    def tarr(f: FinSetArrow) -> FinSetArrow:
        return cat.coproduct(f.dom, e).plus(f, cat.identity(e), cat.coproduct(f.cod, e))

    def unit(x):
        return cat.coproduct(x, e).inl

    def mult(x):
        tx = cat.coproduct(x, e)
        return cat.coproduct(tx.obj, e).copair(cat.identity(tx.obj), tx.inr)

    return MonadData(FunctorData(tobj, tarr, "(-)+E"), unit, mult, f"(-)+{fmt_obj(e)}")


# ---------------------------------------------------------------------------
# Validators


def validate_category(cat, objects, report=None) -> CheckReport:
    """Identity and associativity laws on the full fragment spanned by `objects`."""
    rep = report if report is not None else CheckReport()
    objects = list(objects)
    for a in objects:
        i = cat.identity(a)
        ends = (cat.dom(i), cat.cod(i))
        rep.record("id.endpoints", fmt_obj(a), ends == (a, a), fmt_ends(*ends),
                   fmt_ends(a, a))
    for a in objects:
        for b in objects:
            ia, ib = cat.identity(a), cat.identity(b)
            for f in cat.hom(a, b):
                rep.eq("id.unit", repr(f),
                       (cat.compose(ib, f), cat.compose(f, ia)), (f, f))
    for a in objects:
        for b in objects:
            for c in objects:
                for f in cat.hom(a, b):
                    for g in cat.hom(b, c):
                        gf = cat.compose(g, f)
                        if (cat.dom(gf), cat.cod(gf)) != (a, c):
                            rep.record("compose.endpoints", f"{g!r} . {f!r}", False,
                                       fmt_ends(cat.dom(gf), cat.cod(gf)),
                                       fmt_ends(a, c))
    assoc = rep.family("assoc")
    for a in objects:
        for b in objects:
            homs_ab = cat.hom(a, b)
            for c in objects:
                homs_bc = cat.hom(b, c)
                if not homs_ab or not homs_bc:
                    continue
                for d in objects:
                    for h in cat.hom(c, d):
                        for g in homs_bc:
                            hg = cat.compose(h, g)
                            for f in homs_ab:
                                lhs = cat.compose(hg, f)
                                rhs = cat.compose(h, cat.compose(g, f))
                                assoc.check(lhs == rhs,
                                            lambda: f"h={h!r} g={g!r} f={f!r}",
                                            lhs, rhs)
    assoc.close(f"{assoc.n} triples")
    return rep


def validate_functor(cat, fun: FunctorData, objects, report=None) -> CheckReport:
    rep = report if report is not None else CheckReport()
    for a in objects:
        lhs = fun.arr(cat.identity(a))
        rep.eq(f"{fun.name}.id", fmt_obj(a), lhs, cat.identity(fun.obj(a)))
    fam = rep.family(f"{fun.name}.compose")
    for a in objects:
        for b in objects:
            for c in objects:
                for f in cat.hom(a, b):
                    for g in cat.hom(b, c):
                        lhs = fun.arr(cat.compose(g, f))
                        rhs = cat.compose(fun.arr(g), fun.arr(f))
                        fam.check(lhs == rhs, lambda: f"{g!r} . {f!r}", lhs, rhs)
    fam.close(f"fragment of {len(objects)} objects")
    return rep


def validate_comonad(cat, p: ComonadData, objects, report=None) -> CheckReport:
    """Counit triangles, coassociativity, and both naturality squares."""
    rep = report if report is not None else CheckReport()
    validate_functor(cat, p.functor, objects, rep)
    P, eps, dup = p.functor, p.counit, p.comult
    for a in objects:
        pa = P.obj(a)
        rep.eq("comonad.counit.left", fmt_obj(a),
               cat.compose(eps(pa), dup(a)), cat.identity(pa))
        rep.eq("comonad.counit.right", fmt_obj(a),
               cat.compose(P.arr(eps(a)), dup(a)), cat.identity(pa))
        rep.eq("comonad.coassoc", fmt_obj(a),
               cat.compose(dup(pa), dup(a)), cat.compose(P.arr(dup(a)), dup(a)))
    fam = rep.family("comonad.natural")
    for a in objects:
        for b in objects:
            for f in cat.hom(a, b):
                lhs, rhs = cat.compose(f, eps(a)), cat.compose(eps(b), P.arr(f))
                fam.check(lhs == rhs, lambda: repr(f), lhs, rhs,
                          "comonad.counit.natural")
                lhs = cat.compose(dup(b), P.arr(f))
                rhs = cat.compose(P.arr(P.arr(f)), dup(a))
                fam.check(lhs == rhs, lambda: repr(f), lhs, rhs,
                          "comonad.comult.natural")
    fam.close(f"fragment of {len(objects)} objects")
    return rep


def validate_monad(cat, t: MonadData, objects, report=None) -> CheckReport:
    rep = report if report is not None else CheckReport()
    validate_functor(cat, t.functor, objects, rep)
    T, eta, mu = t.functor, t.unit, t.mult
    for a in objects:
        ta = T.obj(a)
        rep.eq("monad.unit.left", fmt_obj(a),
               cat.compose(mu(a), eta(ta)), cat.identity(ta))
        rep.eq("monad.unit.right", fmt_obj(a),
               cat.compose(mu(a), T.arr(eta(a))), cat.identity(ta))
        rep.eq("monad.assoc", fmt_obj(a),
               cat.compose(mu(a), mu(ta)), cat.compose(mu(a), T.arr(mu(a))))
    fam = rep.family("monad.natural")
    for a in objects:
        for b in objects:
            for f in cat.hom(a, b):
                lhs, rhs = cat.compose(T.arr(f), eta(a)), cat.compose(eta(b), f)
                fam.check(lhs == rhs, lambda: repr(f), lhs, rhs, "monad.unit.natural")
                lhs = cat.compose(mu(b), T.arr(T.arr(f)))
                rhs = cat.compose(T.arr(f), mu(a))
                fam.check(lhs == rhs, lambda: repr(f), lhs, rhs, "monad.mult.natural")
    fam.close(f"fragment of {len(objects)} objects")
    return rep


# ---------------------------------------------------------------------------
# co-Kleisli


class KleisliArrow(Value, namedtuple("KleisliArrow", "dom cod under")):
    """Arrow A -> B of the co-Kleisli category, carried by `under`: PA -> B."""

    __slots__ = ()

    def __repr__(self):
        return f"kl[{fmt_obj(self.dom)}->{fmt_obj(self.cod)}; {self.under!r}]"


class CoKleisliCategory:
    """Same objects, hom(A,B) = hom(PA,B), composition through the comultiplication."""

    def __init__(self, cat, comonad: ComonadData):
        self.base = cat
        self.comonad = comonad

    def identity(self, a):
        return KleisliArrow(a, a, self.comonad.counit(a))

    def dom(self, f):
        return f.dom

    def cod(self, f):
        return f.cod

    def compose(self, g: KleisliArrow, f: KleisliArrow) -> KleisliArrow:
        if f.cod != g.dom:
            raise CategoryError("not composable in the co-Kleisli category")
        p = self.comonad
        under = self.base.compose(
            g.under, self.base.compose(p.functor.arr(f.under), p.comult(f.dom))
        )
        return KleisliArrow(f.dom, g.cod, under)

    def hom(self, a, b):
        pa = self.comonad.functor.obj(a)
        return [KleisliArrow(a, b, u) for u in self.base.hom(pa, b)]

    def cofree(self, h) -> KleisliArrow:
        """Image of a base arrow: precompose with the counit."""
        a = self.base.dom(h)
        return KleisliArrow(a, self.base.cod(h),
                            self.base.compose(h, self.comonad.counit(a)))


@functools.cache
def canonical_set(n: int, prefix="x"):
    """The n-element label set used by exhaustive FinSet fragments, built once."""
    return tuple(f"{prefix}{i}" for i in range(n))


def finset_fragment(max_size: int):
    return [canonical_set(n) for n in range(max_size + 1)]
