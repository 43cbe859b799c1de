"""Algebraic weak factorisation systems of split-epi type.

Every arrow f: A -> B factors through Ef = A + P(B) as

    f  =  ( A --inl--> A + PB --[f, eps_B]--> B )

where P is a comonad on the base (the identity comonad gives the plain
split-epi system).  The left factor carries a comonad L, the right a
monad R, on the arrow category; algebras for R are arrows with a chosen
P-indexed family of sections, coalgebras for L are arrows with a chosen
retraction datum, and every commuting square from a coalgebra to an
algebra acquires a canonical diagonal filler.

E on a square (h, k): f -> g is h + P(k): A + PB -> C + PD.  E factors
through the ends: it reads h and k, never f or g, so `earr(h, k)` takes
just the two arrows, and the naturality sweep evaluates it once a pair.

`PSplitEpiAwfs` is the one implementation; `awfs check --builtin
splitepi` builds it at P = Id.  The split-epi system written out
directly is a test oracle (`tests/oracles.py`), checked to agree with it
at P = Id.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from operator import itemgetter

from .fincat import (
    CategoryError,
    ComonadData,
    FinSetArrow,
    FunctorData,
    Value,
    fibres,
    finset_fragment,
    fmt_ends,
    fmt_obj,
)
from .report import CheckReport


class PSplitEpiAwfs:
    """Factorisation f = [f,eps] . inl through A + PB for a comonad P."""

    def __init__(self, cat, comonad: ComonadData):
        self.cat = cat
        self.comonad = comonad
        self.name = f"{comonad.name}-split-epi"
        # (A, B) -> A + PB, built once per pair of objects
        self._cop = functools.cache(lambda a, b: cat.coproduct(a, comonad.functor.obj(b)))

    def cop(self, f):
        return self._cop(f.dom, f.cod)

    def E(self, f):
        return self.cop(f).obj

    def lam(self, f):
        return self.cop(f).inl

    def rho(self, f):
        return self.cop(f).copair(f, self.comonad.counit(f.cod))

    def earr(self, h, k):
        """E(h,k) = h + P(k): A + PB -> C + PD; E factors through the ends."""
        return self._cop(h.dom, k.dom).plus(h, self.comonad.functor.arr(k),
                                            self._cop(h.cod, k.cod))

    def comult(self, f):
        # A + PB -> A + P(A + PB): the PB summand duplicates, then lands in
        # the right summand of Ef under P
        lf = self.lam(f)
        c2 = self.cop(lf)
        cat = self.cat
        p_inr = self.comonad.functor.arr(self.cop(f).inr)
        leg = cat.compose(c2.inr, cat.compose(p_inr, self.comonad.comult(f.cod)))
        return self.cop(f).copair(c2.inl, leg)

    def mult(self, f):
        rf = self.rho(f)
        return self.cop(rf).copair(self.cat.identity(self.E(f)), self.cop(f).inr)


# ---------------------------------------------------------------------------
# Algebras and coalgebras


class RAlgebraArrow(Value, namedtuple("RAlgebraArrow", "awfs arrow witness")):
    """Arrow g: A -> B with witness sigma: PB -> A satisfying g.sigma = eps_B.

    The monad-algebra structure map p = [1_A, sigma]: Eg -> A is derived;
    its laws are consequences but validate() still checks them.
    """

    __slots__ = ()
    _hidden = ("awfs",)

    @property
    def p(self):
        return self.awfs.cop(self.arrow).copair(self.awfs.cat.identity(self.arrow.dom),
                                                self.witness)

    def validate(self, report=None) -> CheckReport:
        rep = report if report is not None else CheckReport()
        cat, aw = self.awfs.cat, self.awfs
        g = self.arrow
        a, b = g.dom, g.cod
        sub = repr(g)
        pb = aw.comonad.functor.obj(b)
        ends = (self.witness.dom, self.witness.cod)
        if not rep.record("ralg.witness.endpoints", sub, ends == (pb, a),
                          fmt_ends(*ends), fmt_ends(pb, a)):
            return rep
        rep.eq("ralg.section", sub, cat.compose(g, self.witness), aw.comonad.counit(b))
        p = self.p
        rep.eq("ralg.unit", sub, cat.compose(p, aw.lam(g)), cat.identity(a))
        rep.eq("ralg.square", sub, cat.compose(g, p), aw.rho(g))
        e_p = aw.earr(p, cat.identity(b))
        rep.eq("ralg.assoc", sub, cat.compose(p, e_p), cat.compose(p, aw.mult(g)))
        return rep


class LCoalgebraArrow(Value, namedtuple("LCoalgebraArrow", "awfs arrow structure")):
    """Arrow f: A -> B with structure s: B -> Ef splitting rho(f)."""

    __slots__ = ()
    _hidden = ("awfs",)

    def validate(self, report=None) -> CheckReport:
        rep = report if report is not None else CheckReport()
        cat, aw = self.awfs.cat, self.awfs
        f, s = self.arrow, self.structure
        a, b = f.dom, f.cod
        sub = repr(f)
        ends = (s.dom, s.cod)
        if not rep.record("lcoalg.structure.endpoints", sub,
                          ends == (b, aw.E(f)), fmt_ends(*ends),
                          fmt_ends(b, aw.E(f))):
            return rep
        rep.eq("lcoalg.retract", sub, cat.compose(aw.rho(f), s), cat.identity(b))
        rep.eq("lcoalg.square", sub, cat.compose(s, f), aw.lam(f))
        e_s = aw.earr(cat.identity(a), s)
        rep.eq("lcoalg.coassoc", sub, cat.compose(e_s, s), cat.compose(aw.comult(f), s))
        return rep


def free_algebra(awfs, f) -> RAlgebraArrow:
    return RAlgebraArrow(awfs, awfs.rho(f), awfs.cop(f).inr)


def identity_algebra(awfs, b) -> RAlgebraArrow:
    return RAlgebraArrow(awfs, awfs.cat.identity(b), awfs.comonad.counit(b))


def canonical_filler(coalg: LCoalgebraArrow, alg: RAlgebraArrow, h, k):
    """Diagonal j = p . E(h,k) . s for a square (h,k): coalg -> alg.

    Checks the square commutes and that j actually fills both triangles.
    """
    aw = coalg.awfs
    cat = aw.cat
    f, g = coalg.arrow, alg.arrow
    if cat.compose(g, h) != cat.compose(k, f):
        raise CategoryError("square does not commute: g.h != k.f")
    j = cat.compose(alg.p, cat.compose(aw.earr(h, k), coalg.structure))
    if cat.compose(j, f) != h:
        raise CategoryError("filler fails the upper triangle")
    if cat.compose(g, j) != k:
        raise CategoryError("filler fails the lower triangle")
    return j


def r_algebra_compose(outer: RAlgebraArrow, inner: RAlgebraArrow) -> RAlgebraArrow:
    """Composite algebra on outer.arrow . inner.arrow.

    For sections indexed by P: the composite witness peels one layer of
    comultiplication, applies P to the outer witness, then the inner one.
    """
    aw = outer.awfs
    cat = aw.cat
    g, f = outer.arrow, inner.arrow
    if f.cod != g.dom:
        raise CategoryError("algebras are not composable")
    w = cat.compose(
        inner.witness,
        cat.compose(aw.comonad.functor.arr(outer.witness), aw.comonad.comult(g.cod)),
    )
    return RAlgebraArrow(aw, cat.compose(g, f), w)


def cartesian_lift(alg: RAlgebraArrow, pb) -> RAlgebraArrow:
    """Algebra structure on pb.p1 pulled back from alg along the chosen
    pullback pb of a cospan (v, alg.arrow): the witness mediates the cone
    (eps, sigma . Pv), which commutes exactly when sigma is a section."""
    aw = alg.awfs
    if pb.g != alg.arrow:
        raise CategoryError("pullback is not taken along the algebra's arrow")
    over = aw.cat.compose(alg.witness, aw.comonad.functor.arr(pb.f))
    return RAlgebraArrow(aw, pb.p1, pb.mediate(aw.comonad.counit(pb.f.dom), over))


# ---------------------------------------------------------------------------
# Law validation over an exhaustive finite fragment


def squares_between(cat, f: FinSetArrow, g: FinSetArrow):
    """All (h,k) with g.h = k.f, as index pairs (h.idx, k.idx): h is
    FinSetArrow(f.dom, g.dom, h_idx) and k FinSetArrow(f.cod, g.cod, k_idx).
    k-major in hom(f.cod, g.cod)'s lex order, and h(i) over the fibre of g
    above k(f(i)).  k runs only over the maps that send im f into im g,
    which are those with an h: a point of im f takes g's hit points in
    ascending order, any other all of g.cod."""
    over = fibres(g.idx)
    hit, im_f, every = sorted(over), set(f.idx), range(len(g.cod))
    for k_idx in itertools.product(*(hit if b in im_f else every
                                     for b in range(len(f.cod)))):
        for h_idx in itertools.product(*(over[k_idx[j]] for j in f.idx)):
            yield h_idx, k_idx


def fragment_arrows(cat, max_size):
    objs = finset_fragment(max_size)
    return [f for a in objs for b in objs for f in cat.hom(a, b)]


def validate_awfs(awfs, max_size=3, report=None) -> CheckReport:
    """Check every factorisation, comonad, monad, and distributivity law
    on the exhaustive fragment of finite sets of size <= max_size.

    Per-arrow equations are recorded individually; the four naturality
    equations are aggregated over all squares, failures itemised, each
    side the triple (dom, cod, idx) of its composite gathered from index
    tuples.  A square is the index pair (h.idx, k.idx) that squares_between
    yields; h and k are built as arrows only for a new E entry or a failing
    square.  All of a square but rho's index tuples is one verdict, cached
    per class pair of f and g (the values of lam, comult, mult and rho's
    ends) and that pair: a square whose verdict holds costs a dict lookup
    and rho's two gathers, any other is checked side by side.  An equation,
    an arrow's structure maps or a square's sides that fail to compose
    record a failure (lhs `<ill-typed>` in each nat.* family) rather than
    raising; the family's subject counts the squares and the refused arrows
    apart.
    """
    rep = report if report is not None else CheckReport()
    cat = awfs.cat
    arrows = fragment_arrows(cat, max_size)

    def eq(name, sub, lhs_thunk, rhs_thunk):
        try:
            rep.eq(name, sub, lhs_thunk(), rhs_thunk())
        except CategoryError as e:
            rep.record(name, sub, False, "<ill-typed>", str(e))

    for f in arrows:
        sub = repr(f)
        lf, rf = awfs.lam(f), awfs.rho(f)
        one_e = cat.identity(awfs.E(f))
        one_a, one_b = cat.identity(cat.dom(f)), cat.identity(cat.cod(f))
        eq("factor", sub, lambda: cat.compose(rf, lf), lambda: f)
        eq("e.id", sub, lambda: awfs.earr(one_a, one_b), lambda: one_e)
        eq("comonad.counit1", sub,
           lambda: cat.compose(awfs.rho(lf), awfs.comult(f)), lambda: one_e)
        eq("comonad.counit2", sub,
           lambda: cat.compose(awfs.earr(one_a, rf), awfs.comult(f)),
           lambda: one_e)
        eq("comonad.coassoc", sub,
           lambda: cat.compose(awfs.comult(lf), awfs.comult(f)),
           lambda: cat.compose(awfs.earr(one_a, awfs.comult(f)), awfs.comult(f)))
        eq("comult.square", sub,
           lambda: cat.compose(awfs.comult(f), lf), lambda: awfs.lam(lf))
        eq("monad.unit1", sub,
           lambda: cat.compose(awfs.mult(f), awfs.lam(rf)), lambda: one_e)
        eq("monad.unit2", sub,
           lambda: cat.compose(awfs.mult(f), awfs.earr(lf, one_b)),
           lambda: one_e)
        eq("monad.assoc", sub,
           lambda: cat.compose(awfs.mult(f), awfs.mult(rf)),
           lambda: cat.compose(awfs.mult(f), awfs.earr(awfs.mult(f), one_b)))
        eq("mult.square", sub,
           lambda: cat.compose(rf, awfs.mult(f)), lambda: awfs.rho(rf))
        eq("dist.square", sub,
           lambda: cat.compose(awfs.rho(lf), awfs.comult(f)),
           lambda: cat.compose(awfs.mult(f), awfs.lam(rf)))
        eq("dist.pentagon", sub,
           lambda: cat.compose(awfs.comult(f), awfs.mult(f)),
           lambda: cat.compose(
               awfs.mult(lf),
               cat.compose(awfs.earr(awfs.comult(f), awfs.mult(f)),
                           awfs.comult(rf))))

    nat = [rep.family(name)
           for name in ("nat.lambda", "nat.rho", "nat.comult", "nat.mult")]

    def ill_typed(sub, e):
        for fam in nat:
            fam.check(False, sub, "<ill-typed>", str(e))

    def refute(square, sides, err=None):
        """The items of a failing square (h, k, f, g), ill-typed with `err`."""
        sub = "({!r},{!r}): {!r} -> {!r}".format(*square)
        if err is not None:
            return ill_typed(sub, err)
        for fam, lhs, rhs in zip(nat, sides[::2], sides[1::2]):
            fam.check(lhs == rhs, sub, FinSetArrow(*lhs), FinSetArrow(*rhs))

    def arrows_of(hk, f, g):
        """The arrows h, k of the square (h.idx, k.idx) = hk: f -> g."""
        return FinSetArrow(f.dom, g.dom, hk[0]), FinSetArrow(f.cod, g.cod, hk[1])

    def gather(idx):
        """X.idx -> (X . Y).idx for Y.idx = idx in C; a slice for <= 1 point."""
        return (itemgetter(*idx) if len(idx) > 1
                else itemgetter(slice(idx[0], idx[0] + 1) if idx else slice(0)))

    def sides_of(h, k, fr, gr, es):
        """The 8 sides l1, r1, ..., l4, r4 of the square (h, k): f -> g."""
        _, lf, rf, dl_f, mu_f, by_lf, by_rf, by_dlf, by_muf, _ = fr
        _, lg, rg, dl_g, mu_g, *_ = gr
        e, el, er, by_e, by_er, by_h, *_ = es
        return ((lf.dom, e.cod, by_lf(e.idx)), (h.dom, lg.cod, by_h(lg.idx)),
                (e.dom, rg.cod, by_e(rg.idx)), (rf.dom, k.cod, by_rf(k.idx)),
                (dl_f.dom, el.cod, by_dlf(el.idx)), (e.dom, dl_g.cod, by_e(dl_g.idx)),
                (mu_f.dom, e.cod, by_muf(e.idx)), (er.dom, mu_g.cod, by_er(mu_g.idx)))

    # f, lam f, rho f, comult f, mult f, a gather by each map's idx, and f's
    # class: the int interned for (lam f, comult f, mult f, rho f's ends)
    typed, classes = [], {}
    for f in arrows:
        try:
            maps = (awfs.lam(f), awfs.rho(f), awfs.comult(f), awfs.mult(f))
        except CategoryError as e:
            ill_typed(repr(f), e)
            continue
        lf, rf, dl_f, mu_f = maps
        cls = classes.setdefault((lf, dl_f, mu_f, rf.dom, rf.cod), len(classes))
        typed.append((f, *maps, *(gather(m.idx) for m in maps), cls))
    # E reads only h and k: one entry per yielded pair (h.idx, k.idx), its
    # key, in a table per g's ends and class pair, dropped as f's ends
    # change, with E(h,k), E(h,E(h,k)), E(E(h,k),k), gathers by E(h,k),
    # E(E(h,k),k) and h, the ends the 8 composites X . Y join (`ends` equals
    # `joins` iff every side composes), or None once all of the square but
    # rho's two idx holds.
    passed, f_ends = 0, None
    for fr in typed:
        f, lf, rf, dl_f, mu_f, _, by_rf, _, _, cf = fr
        if (f.dom, f.cod) != f_ends:
            f_ends, tables = (f.dom, f.cod), {}
        for gr in typed:
            g, lg, rg, dl_g, mu_g, *_, cg = gr
            table = tables.setdefault((g.dom, g.cod, cf, cg), {})
            joins = (lf.cod, lg.dom, rg.dom, rf.cod, dl_f.cod, dl_g.dom,
                     mu_f.cod, mu_g.dom)
            for hk in squares_between(cat, f, g):
                es = table.get(hk)
                try:
                    if es is None:  # an ill-typed entry raises before it is kept
                        h, k = arrows_of(hk, f, g)
                        e = awfs.earr(h, k)
                        el, er = awfs.earr(h, e), awfs.earr(e, k)
                        es = (e, el, er, gather(e.idx), gather(er.idx), gather(h.idx),
                              (e.dom, h.cod, e.cod, k.dom, el.dom, e.cod, e.dom, er.cod))
                        s = es[6] == joins and sides_of(h, k, fr, gr, es)
                        held = s and (s[0], s[2][:2], s[4], s[6]) == (s[1], s[3][:2], s[5], s[7])
                        es = table[hk] = (*es[:6], None) if held else es
                    if es[6] is None and es[3](rg.idx) == by_rf(hk[1]):
                        passed += 1
                        continue
                    h, k = arrows_of(hk, f, g)  # the square fails
                    e, el, er, *_, ends = es
                    if ends and ends != joins:  # the first side that does not compose raises
                        for x, y in ((e, lf), (lg, h), (rg, e), (k, rf), (el, dl_f),
                                     (dl_g, e), (e, mu_f), (mu_g, er)):
                            cat.compose(x, y)
                except CategoryError as err:
                    refute((h, k, f, g), (), err)
                    continue
                refute((h, k, f, g), sides_of(h, k, fr, gr, es))
    refused = len(arrows) - len(typed)
    for fam in nat:
        fam.n += passed
        fam.close(f"{fam.n - refused} squares"
                  + (f", {refused} ill-typed arrows" if refused else ""))
    return rep


def validate_e_functoriality(awfs, max_size=2, report=None) -> CheckReport:
    """E(h'h, k'k) = E(h',k').E(h,k) over all composable square pairs."""
    rep = report if report is not None else CheckReport()
    cat = awfs.cat
    arrows = fragment_arrows(cat, max_size)
    fam = rep.family("e.compose")
    for f in arrows:
        for g in arrows:
            sq_fg = [(FinSetArrow(f.dom, g.dom, h), FinSetArrow(f.cod, g.cod, k))
                     for h, k in squares_between(cat, f, g)]
            if not sq_fg:
                continue
            for e in arrows:
                for h, k in squares_between(cat, g, e):
                    h2, k2 = FinSetArrow(g.dom, e.dom, h), FinSetArrow(g.cod, e.cod, k)
                    e2 = awfs.earr(h2, k2)
                    for h1, k1 in sq_fg:
                        lhs = awfs.earr(cat.compose(h2, h1), cat.compose(k2, k1))
                        rhs = cat.compose(e2, awfs.earr(h1, k1))
                        fam.check(lhs == rhs,
                                  lambda: f"({h1!r},{k1!r}) then ({h2!r},{k2!r}):"
                                          f" {f!r} -> {g!r} -> {e!r}",
                                  lhs, rhs)
    fam.close(f"{fam.n} composable square pairs")
    return rep


# ---------------------------------------------------------------------------
# Cofibrant replacement comonad


def cofibrant_replacement(awfs):
    """The comonad Q with QB = E(empty -> B), counit rho, comult from the
    factorisation comultiplication.  Over finite sets E(lam(!)) is QQB on
    the nose, so no coherence adjustments are needed."""
    cat = awfs.cat

    def bang(b):
        return cat.from_initial(b)

    def qobj(b):
        return awfs.E(bang(b))

    def qarr(h):
        return awfs.earr(cat.identity(cat.initial()), h)

    def counit(b):
        return awfs.rho(bang(b))

    def comult(b):
        return awfs.comult(bang(b))

    fun = FunctorData(qobj, qarr, "Q")
    return ComonadData(fun, counit, comult, f"Q[{awfs.name}]")


def replacement_comparison(awfs, b):
    """The iso QB -> PB (strip the empty summand) and its inverse."""
    cat, pb = awfs.cat, awfs.comonad.functor.obj(b)
    cop = cat.coproduct(cat.initial(), pb)
    return cop.copair(cat.from_initial(pb), cat.identity(pb)), cop.inr


def validate_comonad_iso(cat, q: ComonadData, p: ComonadData, tau, tau_inv,
                         objects, report=None) -> CheckReport:
    """tau: Q -> P is a natural isomorphism of comonads."""
    rep = report if report is not None else CheckReport()
    for b in objects:
        sub = fmt_obj(b)
        t, ti = tau(b), tau_inv(b)
        rep.eq("iso.section", sub, cat.compose(t, ti), cat.identity(p.functor.obj(b)))
        rep.eq("iso.retract", sub, cat.compose(ti, t), cat.identity(q.functor.obj(b)))
        rep.eq("iso.counit", sub, cat.compose(p.counit(b), t), q.counit(b))
        lhs = cat.compose(p.comult(b), t)
        rhs = cat.compose(tau(p.functor.obj(b)),
                          cat.compose(q.functor.arr(t), q.comult(b)))
        rep.eq("iso.comult", sub, lhs, rhs)
    fam = rep.family("iso.natural")
    for a in objects:
        for b in objects:
            for h in cat.hom(a, b):
                lhs = cat.compose(tau(b), q.functor.arr(h))
                rhs = cat.compose(p.functor.arr(h), tau(a))
                fam.check(lhs == rhs, lambda: repr(h), lhs, rhs)
    fam.close(f"fragment of {len(objects)} objects")
    return rep


# ---------------------------------------------------------------------------
# Monad-algebra sketches


class TAlgebra(Value, namedtuple("TAlgebra", "monad obj act")):
    """Monad algebra (A, act: TA -> A)."""

    __slots__ = ()

    def validate(self, cat, report=None) -> CheckReport:
        rep = report if report is not None else CheckReport()
        t = self.monad
        sub = fmt_obj(self.obj)
        rep.eq("talg.unit", sub,
               cat.compose(self.act, t.unit(self.obj)), cat.identity(self.obj))
        rep.eq("talg.assoc", sub,
               cat.compose(self.act, t.mult(self.obj)),
               cat.compose(self.act, t.functor.arr(self.act)))
        return rep


class TSplitMono(Value, namedtuple("TSplitMono", "monad j k")):
    """j: c -> d with a Kleisli retraction k: d -> Tc, k.j = unit."""

    __slots__ = ()

    def validate(self, cat, report=None) -> CheckReport:
        rep = report if report is not None else CheckReport()
        rep.eq("tsplit.retract", repr(self.j),
               cat.compose(self.k, self.j), self.monad.unit(cat.dom(self.j)))
        return rep


def sketch_canonical_lift(cat, mono: TSplitMono, alg: TAlgebra, h):
    """Extend h: c -> A along j to hbar = act . Th . k: d -> A."""
    t = mono.monad
    if cat.dom(h) != cat.dom(mono.j) or cat.cod(h) != alg.obj:
        raise CategoryError("lift input must run from dom(j) into the algebra carrier")
    if cat.compose(mono.k, mono.j) != t.unit(cat.dom(mono.j)):
        raise CategoryError("(j,k) is not a split mono for the monad")
    hbar = cat.compose(alg.act, cat.compose(t.functor.arr(h), mono.k))
    if cat.compose(hbar, mono.j) != h:
        raise CategoryError("canonical lift fails to extend h along j")
    return hbar


class SketchTriangle(Value, namedtuple("SketchTriangle", "mono phi")):
    """A marked triangle: split mono (j,k) with a map phi: cod(j) -> X."""

    __slots__ = ()


class Sketch(Value, namedtuple("Sketch", "obj triangles")):
    __slots__ = ()


def sketch_is_model_square(cat, sk: Sketch, alg: TAlgebra, f) -> bool:
    """Model condition as commuting squares: f.phi = act . T(f.phi.j) . k."""
    t = alg.monad
    for tri in sk.triangles:
        left = cat.compose(f, tri.phi)
        inner = cat.compose(left, tri.mono.j)
        right = cat.compose(alg.act, cat.compose(t.functor.arr(inner), tri.mono.k))
        if left != right:
            return False
    return True


def sketch_is_model_lift(cat, sk: Sketch, alg: TAlgebra, f) -> bool:
    """Model condition as canonical lifting triangles: f.phi is the
    canonical extension of f.phi.j along j."""
    for tri in sk.triangles:
        left = cat.compose(f, tri.phi)
        h = cat.compose(left, tri.mono.j)
        if left != sketch_canonical_lift(cat, tri.mono, alg, h):
            return False
    return True
