"""Weak maps for a split-epi style factorisation system, two ways.

A weak map A -> B is presented either as a co-Kleisli arrow QA -> B for
the cofibrant replacement comonad Q, or as a span

    A  <--(algebra)--  X  -->  B

whose left leg carries an algebra structure.  Every algebra induces a
comparison map phi from the replacement of its codomain, giving a
functor from spans to co-Kleisli arrows; conversely a co-Kleisli arrow
spreads out into a span with apex QA.  The two presentations agree up
to zigzags of span maps; one map is enough to reach the canonical span
with apex QA, the section phi of the left leg.  `compare_hom` measures
both sides exhaustively over finite sets.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple

from .awfs import (
    RAlgebraArrow,
    cartesian_lift,
    free_algebra,
    identity_algebra,
    cofibrant_replacement,
    r_algebra_compose,
)
from .fincat import (
    CategoryError,
    CoKleisliCategory,
    FinSetArrow,
    KleisliArrow,
    Value,
    canonical_set,
    fibres,
)
from .report import CheckReport


class WeakMapCategory:
    """Co-Kleisli presentation: objects of the base, hom(A,B) = C(QA,B)."""

    def __init__(self, awfs):
        self.awfs = awfs
        self.cat = awfs.cat
        self.q = cofibrant_replacement(awfs)
        self.kleisli = CoKleisliCategory(awfs.cat, self.q)
        self._phi = {}  # (arrow, witness) -> phi; many spans share a left leg

    def phi(self, alg: RAlgebraArrow) -> KleisliArrow:
        """The weak section cod(f) -> dom(f) of an algebra (f, sigma).

        Underlying arrow: Q(cod f) -> Ef -> dom f via the square from the
        empty-domain arrow into f, then the algebra structure map.
        """
        ph = self._phi.get((alg.arrow, alg.witness))
        if ph is None:
            aw, cat = self.awfs, self.cat
            f = alg.arrow
            a, b = cat.dom(f), cat.cod(f)
            e = aw.earr(cat.from_initial(a), cat.identity(b))
            ph = self._phi[f, alg.witness] = KleisliArrow(b, a, cat.compose(alg.p, e))
        return ph


# ---------------------------------------------------------------------------
# Spans


class ASpan(Value, namedtuple("ASpan", "left right")):
    """Span A <- X -> B with an algebra structure on the left leg."""

    __slots__ = ()

    @property
    def apex(self):
        return self.left.awfs.cat.dom(self.left.arrow)

    @property
    def src(self):
        return self.left.awfs.cat.cod(self.left.arrow)

    @property
    def dst(self):
        return self.left.awfs.cat.cod(self.right)


def identity_span(awfs, a) -> ASpan:
    return ASpan(identity_algebra(awfs, a), awfs.cat.identity(a))


def span_to_kleisli(wm: WeakMapCategory, s: ASpan) -> KleisliArrow:
    cat = wm.cat
    ph = wm.phi(s.left)
    return KleisliArrow(s.src, s.dst, cat.compose(s.right, ph.under))


def kleisli_to_span(wm: WeakMapCategory, f: KleisliArrow) -> ASpan:
    bang = wm.cat.from_initial(f.dom)
    return ASpan(free_algebra(wm.awfs, bang), f.under)


def span_compose(s: ASpan, t: ASpan) -> ASpan:
    """Composite span via pullback; the left algebra pulls back along the
    pullback square and then composes."""
    aw = s.left.awfs
    cat = aw.cat
    if s.dst != t.src:
        raise CategoryError("spans are not composable")
    pb = cat.pullback(s.right, t.left.arrow)
    left = r_algebra_compose(s.left, cartesian_lift(t.left, pb))
    return ASpan(left, cat.compose(t.right, pb.p2))


def span_is_map(r, s: ASpan, t: ASpan) -> bool:
    """r: apex(s) -> apex(t) commuting with both legs and the witnesses."""
    cat = s.left.awfs.cat
    return (
        cat.compose(t.left.arrow, r) == s.left.arrow
        and cat.compose(t.right, r) == s.right
        and cat.compose(r, s.left.witness) == t.left.witness
    )


# ---------------------------------------------------------------------------
# Exhaustive comparison of the two presentations


class SpanClass(Value, namedtuple("SpanClass", "kappa count")):
    """All bounded spans sharing one co-Kleisli image."""

    __slots__ = ()


class HomComparison:
    def __init__(self, kleisli_count, span_count, span_class_count, classes, report):
        self.kleisli_count = kleisli_count
        self.span_count = span_count
        self.span_class_count = span_class_count
        self.classes = classes  # of SpanClass, ordered by kappa
        self.report = report


def _sections(l, eps):
    """Every sigma with l[sigma[w]] = eps[w] for all w, in lex order."""
    over = fibres(l)
    return itertools.product(*(over.get(e, ()) for e in eps))


def _int_spans(a, b, eps, max_apex):
    """All spans (k, l, sigma, r) over carriers of sizes a, b with witness
    base indexed by eps: positions of the counit.  Integer encoded; the
    empty apex k = 0 carries a span only when a = 0."""
    for k in range(max_apex + 1):
        for l in itertools.product(range(a), repeat=k):
            for sigma in _sections(l, eps):
                for r in itertools.product(range(b), repeat=k):
                    yield k, l, sigma, r


def _api_span(awfs, a_labels, b_labels, k, l, sigma, r) -> ASpan:
    apex = canonical_set(k, "s")
    pa = awfs.comonad.functor.obj(a_labels)
    new = tuple.__new__  # no frame per value
    alg = new(RAlgebraArrow, (awfs, new(FinSetArrow, (apex, a_labels, l)),
                              new(FinSetArrow, (pa, apex, sigma))))
    return new(ASpan, (alg, new(FinSetArrow, (apex, b_labels, r))))


def enumerate_spans(awfs, a_labels, b_labels, max_apex):
    """Every span a <- apex -> b with a chosen algebra left leg and
    apex size <= max_apex, one witness per structure."""
    a_labels, b_labels = tuple(a_labels), tuple(b_labels)
    eps = awfs.comonad.counit(a_labels).idx
    for k, l, sigma, r in _int_spans(len(a_labels), len(b_labels), eps,
                                     max_apex):
        yield _api_span(awfs, a_labels, b_labels, k, l, sigma, r)


# targets whose one-step span maps kappa.invariant checks, at most
INVARIANCE_TARGETS = 200


def compare_hom(awfs, a_size=2, b_size=2, apex_bound=4, full_upto=3,
                seed=0, reach=False, report=None) -> HomComparison:
    """Census of weak maps A -> B in both presentations.

    Every span with apex size <= apex_bound is enumerated (integer
    encoded); its co-Kleisli image kappa is the class key.  Checks:

    * api.kappa: the integer kappa agrees with span_to_kleisli through
      the real category operations, exhaustively up to full_upto and on
      a seeded deterministic sample above;
    * roundtrip: kleisli -> span -> kleisli is the identity;
    * class.count: bounded span classes biject with co-Kleisli arrows;
      TRUNCATION-EXEMPT when apex_bound < |QA|, as the canonical spans
      need apex QA;
    * kappa.invariant: sampled one-step span maps preserve kappa, with
      sources built from arbitrary relabelings over at most
      INVARIANCE_TARGETS sampled targets;
    * canonical.reach, when reach is set: the section phi of each
      bounded span's left leg is a span map onto it from the canonical
      span with apex QA of its class (the two sides of a failing item),
      built once per class and keyed by span_to_kleisli(wm, s), not the
      integer kappa, so a wrong kappa cannot hide a failure.
    """
    rep = report if report is not None else CheckReport()
    a_labels = canonical_set(a_size, "a")
    b_labels = canonical_set(b_size, "b")
    wm = WeakMapCategory(awfs)
    eps = awfs.comonad.counit(a_labels).idx
    pa = len(eps)
    rng = random.Random(seed)

    kleisli_count = b_size ** pa
    classes = {}
    span_count = 0
    api = rep.family("api.kappa")
    for k, l, sigma, r in _int_spans(a_size, b_size, eps, apex_bound):
        span_count += 1
        kappa = tuple(r[sigma[w]] for w in range(pa))
        classes[kappa] = classes.get(kappa, 0) + 1
        if k <= full_upto or rng.randrange(1000) == 0:
            s = _api_span(awfs, a_labels, b_labels, k, l, sigma, r)
            got = span_to_kleisli(wm, s).under.idx
            api.check(got == kappa, lambda: str((k, l, sigma, r)), got, kappa)
    api.close(f"{api.n} spans cross-checked")

    qa = wm.q.functor.obj(a_labels)
    rt = rep.family("roundtrip")
    for u in wm.kleisli.hom(a_labels, b_labels):
        back = span_to_kleisli(wm, kleisli_to_span(wm, u))
        rt.check(back == u, lambda: repr(u), back, u)
    rt.close(f"{kleisli_count} co-Kleisli arrows")

    if apex_bound < len(qa):
        rep.exempt("class.count", f"apex<={apex_bound}")
    else:
        rep.record("class.count", f"apex<={apex_bound}",
                   len(classes) == kleisli_count, len(classes), kleisli_count)

    # invariance: build sources over sampled targets by arbitrary relabeling
    targets = list(_int_spans(a_size, b_size, eps, min(2, apex_bound)))
    all_targets = (targets if len(targets) <= INVARIANCE_TARGETS
                   else rng.sample(targets, INVARIANCE_TARGETS))
    inv = rep.family("kappa.invariant")
    for k, l, sigma, r in all_targets:
        t = _api_span(awfs, a_labels, b_labels, k, l, sigma, r)
        kt = span_to_kleisli(wm, t).under.idx
        for ksrc in range(1, min(3, apex_bound) + 1):
            for rmap in itertools.product(range(k), repeat=ksrc):
                for s_sigma in _sections(rmap, sigma):
                    sl = tuple(l[rmap[x]] for x in range(ksrc))
                    sr = tuple(r[rmap[x]] for x in range(ksrc))
                    s = _api_span(awfs, a_labels, b_labels, ksrc, sl, s_sigma, sr)
                    rarr = FinSetArrow(s.apex, t.apex, rmap)
                    ks = (span_to_kleisli(wm, s).under.idx
                          if span_is_map(rarr, s, t) else "not a span map")
                    inv.check(ks == kt,
                              lambda: f"map {rmap} into {(k, l, sigma, r)}",
                              ks, kt)
    inv.close(f"{inv.n} one-step maps")

    if reach:
        canonical = {}
        reached = rep.family("canonical.reach")
        for s in enumerate_spans(awfs, a_labels, b_labels, apex_bound):
            u = span_to_kleisli(wm, s)
            if u not in canonical:
                canonical[u] = kleisli_to_span(wm, u)
            r, c = wm.phi(s.left).under, canonical[u]
            reached.check(span_is_map(r, c, s), lambda: repr(s), r, c)
        reached.close(f"{reached.n} spans within apex<={apex_bound}")

    ordered = tuple(SpanClass(kappa, classes[kappa]) for kappa in sorted(classes))
    return HomComparison(kleisli_count, span_count, len(classes), ordered, rep)
