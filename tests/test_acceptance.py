"""Acceptance gate: one test per advertised guarantee, one printed line each.

Every check below is exact (finite enumeration or rational arithmetic);
there are no tolerances anywhere.  Run with -s to see the verdict lines
on success; on failure the captured line plus the offending equations
appear in the pytest report.
"""

import io
import itertools
import random
from contextlib import redirect_stdout

from weakmaps.awfs import (
    LCoalgebraArrow,
    PSplitEpiAwfs,
    RAlgebraArrow,
    Sketch,
    SketchTriangle,
    TAlgebra,
    TSplitMono,
    canonical_filler,
    cofibrant_replacement,
    fragment_arrows,
    replacement_comparison,
    sketch_canonical_lift,
    sketch_is_model_lift,
    sketch_is_model_square,
    squares_between,
    validate_awfs,
    validate_comonad_iso,
)
from weakmaps.bar import (
    TruncatedCodescent,
    bar_lali,
    builtin_algebra,
    builtin_module,
    free_ulali_factor,
    lift_ulali,
    nonequivariant_twist,
    normalized_level_dims,
    random_weak,
    strict_to_weak,
    thickened_lali,
    weak_add,
    weak_compose,
    weak_differential,
    weak_identity,
    weak_smul,
    weak_to_strict,
)
from weakmaps.cli import main
from weakmaps.dg import homology_ranks, id_gmap, is_chain_map
from weakmaps.fincat import (
    CategoryError,
    FinSetArrow,
    FinSetCategory,
    canonical_set,
    coreader_comonad,
    exception_monad,
    validate_comonad,
)
from weakmaps.report import CheckReport
from weakmaps.spans import (
    WeakMapCategory,
    compare_hom,
    enumerate_spans,
    kleisli_to_span,
    span_is_map,
    span_to_kleisli,
)
from oracles import SplitEpiAwfs, span_equiv

C = FinSetCategory()


def _gate(num, label, ok, detail=""):
    print(f"[acceptance {num}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance {num} ({label}) failed: {detail}"


def _psplit(s_size=2):
    return PSplitEpiAwfs(C, coreader_comonad(C, canonical_set(s_size, "s")))


def _failures(rep):
    return "; ".join(c.line() for c in rep.failures()[:6])


# --------------------------------------------------------------------------
# 1. every factorisation-system law on the exhaustive finite-set fragments


def test_1_awfs_laws_exhaustive():
    rep = CheckReport()
    validate_awfs(SplitEpiAwfs(C), max_size=3, report=rep)
    validate_awfs(_psplit(), max_size=2, report=rep)
    with redirect_stdout(io.StringIO()):
        cli_ok = (
            main(["awfs", "check", "--finset-max", "3"]) == 0
            and main(["awfs", "check", "--builtin", "psplitepi",
                      "--finset-max", "2"]) == 0
        )
    _gate(
        1,
        "split-epi and coalgebra-indexed factorisation laws, sizes <= 3 / <= 2",
        rep.ok and rep.counts()["PASS"] > 800 and cli_ok,
        _failures(rep) or f"cli_ok={cli_ok}",
    )


# --------------------------------------------------------------------------
# 2. cofibrant replacement is the indexing comonad, naturally


def test_2_cofibrant_replacement_iso():
    aw = _psplit()
    q = cofibrant_replacement(aw)
    objs = [canonical_set(n) for n in range(4)]
    rep = CheckReport()
    validate_comonad(C, q, objs, rep)
    validate_comonad_iso(
        C, q, aw.comonad,
        lambda b: replacement_comparison(aw, b)[0],
        lambda b: replacement_comparison(aw, b)[1],
        objs, rep,
    )
    _gate(
        2,
        "replacement comonad isomorphic to the indexing comonad, sizes <= 3",
        rep.ok and rep.counts()["PASS"] > 0,
        _failures(rep),
    )


# --------------------------------------------------------------------------
# 3. span and co-Kleisli presentations of weak maps agree


def test_3_hom_presentations_agree():
    ok = True
    detail = []
    spans_seen = maps_seen = equiv_sampled = 0
    for s_size in (1, 2):
        aw = _psplit(s_size)
        wm = WeakMapCategory(aw)
        for a_size in (1, 2):
            a_labels = canonical_set(a_size, "a")
            pa = len(aw.comonad.counit(a_labels).idx)
            bound = a_size * s_size + 2
            for b_size in (1, 2):
                b_labels = canonical_set(b_size, "b")
                comp = compare_hom(aw, a_size, b_size, apex_bound=bound,
                                   full_upto=3, seed=0)
                if not (comp.report.ok
                        and comp.span_class_count == comp.kleisli_count):
                    ok = False
                    detail.append(f"census {a_size},{b_size},{s_size}: "
                                  + _failures(comp.report))

                # every bounded span reaches its canonical representative;
                # the one-step witness keeps the sweep exhaustive, span_equiv
                # re-derives a zigzag on a deterministic stride
                canon = {}
                for i, s in enumerate(
                        enumerate_spans(aw, a_labels, b_labels, bound)):
                    u = span_to_kleisli(wm, s)
                    c = canon.get(u.under.idx)
                    if c is None:
                        c = canon[u.under.idx] = kleisli_to_span(wm, u)
                    if not span_is_map(wm.phi(s.left).under, c, s):
                        ok = False
                        detail.append(f"unreached span #{i} "
                                      f"({a_size},{b_size},{s_size})")
                    if i % 997 == 0:
                        res = span_equiv(wm, s, c, apex_bound=bound,
                                         zigzag_bound=4)
                        if not (res.equivalent and res.zigzag.verify()
                                and len(res.zigzag.maps) <= 4):
                            ok = False
                            detail.append(f"span_equiv #{i}: {res.kind}")
                        equiv_sampled += 1
                    spans_seen += 1

                # one-step span maps preserve the co-Kleisli image,
                # exhaustively over apexes <= 4: targets enumerate every
                # incoming map by pulling their structure back
                spans = {}
                kappa = {}
                for s in enumerate_spans(aw, a_labels, b_labels, 4):
                    code = (len(s.apex), s.left.arrow.idx,
                            s.left.witness.idx, s.right.idx)
                    spans[code] = s
                    kappa[code] = span_to_kleisli(wm, s).under.idx
                for (k, l, sig, r), t in spans.items():
                    for ksrc in range(1, 5):
                        for rmap in itertools.product(range(k), repeat=ksrc):
                            fibres = [[x for x in range(ksrc)
                                       if rmap[x] == sig[w]]
                                      for w in range(pa)]
                            if any(not fb for fb in fibres):
                                continue
                            sl = tuple(l[rmap[x]] for x in range(ksrc))
                            sr = tuple(r[rmap[x]] for x in range(ksrc))
                            for ssig in itertools.product(*fibres):
                                src = spans[(ksrc, sl, ssig, sr)]
                                rarr = FinSetArrow(src.apex, t.apex, rmap)
                                good = (span_is_map(rarr, src, t)
                                        and kappa[(ksrc, sl, ssig, sr)]
                                        == kappa[(k, l, sig, r)])
                                if not good:
                                    ok = False
                                    detail.append(
                                        f"map {rmap} into {(k, l, sig, r)}")
                                maps_seen += 1
    _gate(
        3,
        "weak-map presentations: census, canonical reach, map invariance",
        ok and spans_seen > 250000 and maps_seen > 500000
        and equiv_sampled > 250,
        "; ".join(detail[:6])
        or f"spans={spans_seen} maps={maps_seen} sampled={equiv_sampled}",
    )


# --------------------------------------------------------------------------
# 4. sign algebra of coherent maps on seeded random instances


def test_4_coherent_map_sign_algebra():
    algs = [builtin_algebra(k)
            for k in ("rationals", "dual_numbers", "exterior")]
    mods = {a.name: (builtin_module(a, "ground"), builtin_module(a, "free"))
            for a in algs}
    L = 4
    ok = True
    detail = ""
    instances = 210
    for i in range(instances):
        alg = algs[i % 3]
        rng = random.Random(40_000 + i)
        m0, m1, m2, m3 = (mods[alg.name][rng.randrange(2)] for _ in range(4))
        f = random_weak(rng, m0, m1, rng.randrange(-1, 2), L)
        g = random_weak(rng, m1, m2, rng.randrange(-1, 2), L)
        h = random_weak(rng, m2, m3, rng.randrange(-1, 2), L)
        dd = weak_differential(weak_differential(f)).is_zero()
        lhs = weak_differential(weak_compose(g, f))
        rhs = weak_add(
            weak_compose(weak_differential(g), f),
            weak_smul((-1) ** (g.deg % 2),
                      weak_compose(g, weak_differential(f))))
        leibniz = lhs == rhs
        assoc = (weak_compose(h, weak_compose(g, f))
                 == weak_compose(weak_compose(h, g), f))
        unital = (weak_compose(f, weak_identity(m0, L)) == f
                  and weak_compose(weak_identity(m1, L), f) == f)
        if not (dd and leibniz and assoc and unital):
            ok = False
            detail = (f"instance {i} ({alg.name}): dd={dd} "
                      f"leibniz={leibniz} assoc={assoc} unital={unital}")
            break
    _gate(4, f"coherent-map laws on {instances} seeded instances, L=4",
          ok, detail)


# --------------------------------------------------------------------------
# 5. resolution of the ground module over the dual numbers


def test_5_dual_numbers_ground_resolution():
    alg = builtin_algebra("dual_numbers")
    mod = builtin_module(alg, "ground")
    t = TruncatedCodescent(mod.calculus(5))
    rep = t.validate()
    _, lrep = bar_lali(t)
    ranks = homology_ranks(t.total, range(5))
    table, nrep = normalized_level_dims(t)
    ok = (
        rep.ok
        and lrep.ok
        and lrep.counts()["TRUNCATION-EXEMPT"] == 1
        and ranks == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
        and nrep.ok
        and table == [{0: 2}] * 6
    )
    _gate(
        5,
        "dual numbers / ground module at L=5: homology, contraction, dims",
        ok,
        _failures(rep) or _failures(lrep) or _failures(nrep)
        or f"ranks={ranks} table={table}",
    )


# --------------------------------------------------------------------------
# 6. coherent lifting and strict factorisation of an acyclic fibration


def test_6_lift_and_factor_through_resolution():
    mediating = {"factor.strict", "factor.chain", "factor.gh",
                 "factor.hq", "factor.eps_h"}
    ok = True
    detail = []
    for kind in ("dual_numbers", "exterior"):
        alg = builtin_algebra(kind)
        mod = builtin_module(alg, "free")
        modB, g, f0, eps0 = thickened_lali(mod, nonequivariant_twist(alg))
        f, eps, lrep = lift_ulali(modB, mod, g, f0, eps0, 4)
        # the twist forces the recursion through a genuinely nonzero stage
        live = not f.comps[1].is_zero()
        t = TruncatedCodescent(mod.calculus(4))
        h, frep = free_ulali_factor(t, modB, g, f0, eps0)
        names = {c.name for c in frep.checks}
        here = (lrep.ok and live and frep.ok
                and mediating <= names and "factor.unique" in names
                and frep.counts()["TRUNCATION-EXEMPT"] == 1)
        if not here:
            ok = False
            detail.append(f"{kind}: " + (_failures(lrep) or _failures(frep)
                                         or f"live={live} names={names}"))
    _gate(6, "lali lift and mediating factorisation, dual + exterior, L=4",
          ok, "; ".join(detail))


# --------------------------------------------------------------------------
# 7. strict maps out of the resolution versus coherent maps


def test_7_weak_strict_round_trips():
    ok = True
    detail = ""
    for kind in ("dual_numbers", "exterior"):
        alg = builtin_algebra(kind)
        src = builtin_module(alg, "ground")
        dst = builtin_module(alg, "free")
        t = TruncatedCodescent(src.calculus(4))
        for i in range(25):
            rng = random.Random(70_000 + i)
            gw = weak_differential(random_weak(rng, src, dst, 1, 4))
            u = weak_to_strict(t, gw)
            if not (is_chain_map(u)
                    and strict_to_weak(t, u, dst) == gw
                    and weak_to_strict(t, strict_to_weak(t, u, dst)) == u):
                ok = False
                detail = f"{kind} seed {70_000 + i}"
        modx = t.as_module()
        if not (weak_to_strict(t, strict_to_weak(t, t.p, src)) == t.p
                and weak_to_strict(
                    t, strict_to_weak(t, id_gmap(t.total), modx))
                == id_gmap(t.total)):
            ok = False
            detail = f"{kind} structural round trip"
    _gate(7, "weak<->strict round trips on 50 seeded inputs, L=4", ok, detail)


# --------------------------------------------------------------------------
# 8. canonical fillers and canonical lifts against their sketches


def _coalgebras(aw, arrows):
    for f in arrows:
        for s in C.hom(C.cod(f), aw.E(f)):
            cand = LCoalgebraArrow(aw, f, s)
            if cand.validate().ok:
                yield cand


def _algebras(aw, arrows):
    for g in arrows:
        for w in C.hom(aw.comonad.functor.obj(C.cod(g)), C.dom(g)):
            cand = RAlgebraArrow(aw, g, w)
            if cand.validate().ok:
                yield cand


def _t_algebras(t):
    for n in (1, 2):
        carrier = canonical_set(n)
        tc = t.functor.obj(carrier)
        for idx in itertools.product(range(n), repeat=len(tc)):
            alg = TAlgebra(t, carrier, FinSetArrow(tc, carrier, idx))
            if alg.validate(C).ok:
                yield alg


def _split_monos(t):
    for nc in (1, 2):
        c = canonical_set(nc, "c")
        tc = t.functor.obj(c)
        for nd in (1, 2):
            d = canonical_set(nd, "d")
            for j in C.hom(c, d):
                for k in C.hom(d, tc):
                    if C.compose(k, j) == t.unit(c):
                        yield TSplitMono(t, j, k)


def test_8_fillers_and_sketches():
    ok = True
    detail = []

    fillers = 0
    arrows = fragment_arrows(C, 2)
    for aw in (SplitEpiAwfs(C), _psplit()):
        coalgs = list(_coalgebras(aw, arrows))
        algs = list(_algebras(aw, arrows))
        for coalg in coalgs:
            for alg in algs:
                for h, k in ((FinSetArrow(coalg.arrow.dom, alg.arrow.dom, hi),
                              FinSetArrow(coalg.arrow.cod, alg.arrow.cod, ki))
                             for hi, ki in squares_between(C, coalg.arrow, alg.arrow)):
                    try:
                        j = canonical_filler(coalg, alg, h, k)
                    except CategoryError as err:
                        ok = False
                        detail.append(f"filler: {err}")
                        continue
                    if not (C.compose(j, coalg.arrow) == h
                            and C.compose(alg.arrow, j) == k):
                        ok = False
                        detail.append("filler triangles")
                    fillers += 1

    lifts = pairs = agree = disagree = 0
    x = canonical_set(2)
    for e_size in (1, 2):
        t = exception_monad(C, canonical_set(e_size, "e"))
        monos = list(_split_monos(t))
        talgs = list(_t_algebras(t))
        for mono in monos:
            d = C.cod(mono.j)
            for alg in talgs:
                for h in C.hom(C.dom(mono.j), alg.obj):
                    try:
                        hbar = sketch_canonical_lift(C, mono, alg, h)
                    except CategoryError as err:
                        ok = False
                        detail.append(f"lift: {err}")
                        continue
                    if C.compose(hbar, mono.j) != h:
                        ok = False
                        detail.append("lift triangle")
                    lifts += 1
                for phi in C.hom(d, x):
                    sk = Sketch(x, (SketchTriangle(mono, phi),))
                    for f in C.hom(x, alg.obj):
                        a = sketch_is_model_square(C, sk, alg, f)
                        b = sketch_is_model_lift(C, sk, alg, f)
                        if a != b:
                            ok = False
                            detail.append(f"model predicates split on {f!r}")
                        agree += a
                        disagree += not a
                        pairs += 1
    nontrivial = fillers > 0 and lifts > 0 and agree > 0 and disagree > 0
    _gate(
        8,
        "canonical fillers, canonical lifts, model-predicate agreement",
        ok and nontrivial,
        "; ".join(detail[:6])
        or f"fillers={fillers} lifts={lifts} pairs={pairs}",
    )
