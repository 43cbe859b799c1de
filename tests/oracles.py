"""Independent implementations that the tests compare the program against.

No subcommand runs them.  `SplitEpiAwfs` is the split-epi system written
directly, which `awfs check` builds as `PSplitEpiAwfs` at P = Id;
`awfs_equal_on` compares the two.  `phi_by_filler` computes phi by
another route.  `span_maps` and `span_equiv` search for the span maps
that the census's canonical.reach reads off phi without a search.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from weakmaps.awfs import RAlgebraArrow, fragment_arrows, squares_between
from weakmaps.fincat import (
    CategoryError,
    FinSetArrow,
    KleisliArrow,
    Value,
    fibres,
    identity_comonad,
)
from weakmaps.report import CheckReport
from weakmaps.spans import ASpan, WeakMapCategory, span_is_map


class SplitEpiAwfs:
    """Factorisation f = [f,1] . inl through A + B."""

    name = "split-epi"

    def __init__(self, cat):
        self.cat = cat
        self.comonad = identity_comonad(cat)
        self._cop = functools.cache(cat.coproduct)  # (A, B) -> A + B

    def cop(self, f):
        return self._cop(f.dom, f.cod)

    def E(self, f):
        return self.cop(f).obj

    def lam(self, f):
        return self.cop(f).inl

    def rho(self, f):
        return self.cop(f).copair(f, self.cat.identity(self.cat.cod(f)))

    def earr(self, h, k):
        """E(h,k) = [inl h, inr k]: A + B -> C + D; E factors through the ends."""
        into, cat = self._cop(h.cod, k.cod), self.cat
        return self._cop(h.dom, k.dom).copair(cat.compose(into.inl, h),
                                              cat.compose(into.inr, k))

    def comult(self, f):
        lf = self.lam(f)
        c2 = self.cop(lf)
        cat = self.cat
        return self.cop(f).copair(c2.inl, cat.compose(c2.inr, self.cop(f).inr))

    def mult(self, f):
        rf = self.rho(f)
        e = self.E(f)
        return self.cop(rf).copair(self.cat.identity(e), self.cop(f).inr)


def awfs_equal_on(a, b, max_size=2, report=None) -> CheckReport:
    """Componentwise agreement of two factorisation systems on a fragment."""
    rep = report if report is not None else CheckReport()
    cat = a.cat
    arrows = fragment_arrows(cat, max_size)
    for f in arrows:
        sub = repr(f)
        rep.eq("agree.lambda", sub, a.lam(f), b.lam(f))
        rep.eq("agree.rho", sub, a.rho(f), b.rho(f))
        rep.eq("agree.comult", sub, a.comult(f), b.comult(f))
        rep.eq("agree.mult", sub, a.mult(f), b.mult(f))
    fam = rep.family("agree.e")
    for f in arrows:
        for g in arrows:
            for h_idx, k_idx in squares_between(cat, f, g):
                h, k = FinSetArrow(f.dom, g.dom, h_idx), FinSetArrow(f.cod, g.cod, k_idx)
                lhs, rhs = a.earr(h, k), b.earr(h, k)
                fam.check(lhs == rhs, lambda: f"({h!r},{k!r})", lhs, rhs)
    fam.close(f"{fam.n} squares")
    return rep


def phi_by_filler(wm: WeakMapCategory, alg: RAlgebraArrow) -> KleisliArrow:
    """Same map through the comultiplication route; agreement with
    phi() is a counit-law consequence that stays under test."""
    aw, cat = wm.awfs, wm.cat
    f = alg.arrow
    a, b = cat.dom(f), cat.cod(f)
    bang = cat.from_initial(b)
    e = aw.earr(cat.from_initial(a), aw.rho(bang))
    under = cat.compose(alg.p, cat.compose(e, aw.comult(bang)))
    return KleisliArrow(b, a, under)


def span_maps(s: ASpan, t: ASpan):
    """Every span map s -> t, in cat.hom order.  r(x) ranges over the fibre
    {y : l_t(y) = l_s(x), r_t(y) = r_s(x)} and is forced to w_t(j) at
    w_s(j) (no map on a clash); span_is_map still checks each candidate."""
    over = fibres(zip(t.left.arrow.idx, t.right.idx))
    choices = [over.get(legs, []) for legs in zip(s.left.arrow.idx, s.right.idx)]
    for x, y in zip(s.left.witness.idx, t.left.witness.idx):
        choices[x] = [y] if y in choices[x] else []
    rs = (FinSetArrow(s.apex, t.apex, idx) for idx in itertools.product(*choices))
    return [r for r in rs if span_is_map(r, s, t)]


class SpanZigzag(Value, namedtuple("SpanZigzag", "spans maps dirs")):
    """Chain of span maps connecting spans[0] to spans[-1]; dirs[i] is
    "fwd" when maps[i]: spans[i] -> spans[i+1], "bwd" for the reverse."""

    __slots__ = ()

    def verify(self) -> bool:
        for i, (r, d) in enumerate(zip(self.maps, self.dirs)):
            a, b = self.spans[i], self.spans[i + 1]
            if d == "fwd":
                ok = span_is_map(r, a, b)
            else:
                ok = span_is_map(r, b, a)
            if not ok:
                return False
        return True


class SpanEquivResult(Value, namedtuple("SpanEquivResult", "kind zigzag")):
    """kind is "connected", with its zigzag, or "not-found-within-bounds"."""

    __slots__ = ()

    @property
    def equivalent(self):
        return self.kind == "connected"


def span_equiv(wm: WeakMapCategory, s: ASpan, t: ASpan,
               apex_bound=None, zigzag_bound=4) -> SpanEquivResult:
    """Connect two spans by one span map, in either direction.

    Acceptance test 3's oracle for the section phi that `compare_hom`
    checks, so one step is enough.  The not-found answer claims no
    inequivalence, as a longer zigzag may still exist.
    `wm`, `apex_bound` and `zigzag_bound` are unused, and the result
    keeps the general shape of a zigzag, only because acceptance test 3
    still passes them and reads it.
    """
    if s.src != t.src or s.dst != t.dst:
        raise CategoryError("spans have different boundaries")
    for r in span_maps(s, t):
        return SpanEquivResult("connected", SpanZigzag((s, t), (r,), ("fwd",)))
    for r in span_maps(t, s):
        return SpanEquivResult("connected", SpanZigzag((s, t), (r,), ("bwd",)))
    return SpanEquivResult("not-found-within-bounds", None)
