import itertools

import pytest

from weakmaps.fincat import (
    CategoryError,
    FinSetArrow,
    FinSetCategory,
    canonical_set,
    coreader_comonad,
    finset_fragment,
    identity_comonad,
    validate_category,
)
from weakmaps.awfs import PSplitEpiAwfs, RAlgebraArrow, identity_algebra
from weakmaps import spans as spans_module
from weakmaps.report import PASS
from weakmaps.spans import (
    WeakMapCategory,
    _api_span,
    enumerate_spans,
    compare_hom,
    identity_span,
    kleisli_to_span,
    span_compose,
    span_is_map,
    span_to_kleisli,
)
from generators import fsarrow, kappa_swapped
import oracles
from oracles import SplitEpiAwfs, SpanZigzag, phi_by_filler, span_equiv, span_maps

C = FinSetCategory()
SPLIT = SplitEpiAwfs(C)
PSPLIT = PSplitEpiAwfs(C, coreader_comonad(C, "st"))

A2 = canonical_set(2, "a")
B2 = canonical_set(2, "b")


def all_spans(awfs, a_labels, b_labels, max_apex):
    yield from enumerate_spans(awfs, a_labels, b_labels, max_apex)


@pytest.mark.parametrize("aw, passes", [(SPLIT, 15), (PSPLIT, 29)],
                         ids=["splitepi", "coreader"])
def test_weak_map_category_laws(aw, passes):
    # weak maps are the co-Kleisli category of the replacement comonad Q
    rep = validate_category(WeakMapCategory(aw).kleisli, finset_fragment(2))
    assert rep.ok, rep.failures()
    assert rep.counts()[PASS] == passes


def test_phi_routes_agree_on_all_small_algebras():
    for aw in (SPLIT, PSPLIT):
        wm = WeakMapCategory(aw)
        for s in all_spans(aw, A2, B2, 3):
            assert wm.phi(s.left) == phi_by_filler(wm, s.left)


def test_phi_section_property():
    for aw in (SPLIT, PSPLIT):
        wm = WeakMapCategory(aw)
        for s in all_spans(aw, A2, B2, 2):
            ph = wm.phi(s.left)
            lhs = C.compose(s.left.arrow, ph.under)
            assert lhs == wm.q.counit(A2)


def test_phi_memo_tells_witnesses_apart():
    # two algebras on one arrow, with different witnesses, asked of one
    # WeakMapCategory in turn: a memo keyed on the arrow alone would hand
    # the second the first one's phi
    f = fsarrow(A2, ("b0",), {"a0": "b0", "a1": "b0"})
    for aw in (SPLIT, PSPLIT):
        pb = aw.comonad.functor.obj(("b0",))
        algs = [RAlgebraArrow(aw, f, FinSetArrow(pb, A2, (i,) * len(pb)))
                for i in (0, 1)]
        assert all(alg.validate().ok for alg in algs)
        wm = WeakMapCategory(aw)
        phis = [wm.phi(alg) for alg in algs]
        assert phis[0] != phis[1]
        for alg, ph in zip(algs, phis):
            assert ph == phi_by_filler(wm, alg) == WeakMapCategory(aw).phi(alg)
            assert wm.phi(alg) is ph


def test_phi_of_identity_algebra_is_counit():
    for aw in (SPLIT, PSPLIT):
        wm = WeakMapCategory(aw)
        ph = wm.phi(identity_algebra(aw, A2))
        assert ph.under == wm.q.counit(A2)
        assert ph == wm.kleisli.identity(A2)


def test_phi_is_functorial_into_kleisli():
    # composite algebras map to co-Kleisli composites
    aw = SPLIT
    wm = WeakMapCategory(aw)
    b_labels = ("b0",)
    c_labels = ("c0",)
    for s in all_spans(aw, A2, b_labels, 2):
        af = s.left  # algebra on X -> A2; use arrow into A2
    # build algebras explicitly: f: A2 -> b, g: b -> c surjections with sections
    f = fsarrow(A2, b_labels, {"a0": "b0", "a1": "b0"})
    alg_f = RAlgebraArrow(aw, f, fsarrow(b_labels, A2, {"b0": "a1"}))
    g = fsarrow(b_labels, c_labels, {"b0": "c0"})
    alg_g = RAlgebraArrow(aw, g, fsarrow(c_labels, b_labels, {"c0": "b0"}))
    from weakmaps.awfs import r_algebra_compose
    comp = r_algebra_compose(alg_g, alg_f)
    lhs = wm.phi(comp)
    rhs = wm.kleisli.compose(wm.phi(alg_f), wm.phi(alg_g))
    assert lhs == rhs


def test_phi_functorial_exhaustive_coreader():
    aw = PSPLIT
    wm = WeakMapCategory(aw)
    from weakmaps.awfs import r_algebra_compose
    bb = ("b0",)
    cc = ("c0",)
    pb = aw.comonad.functor.obj(bb)
    pc = aw.comonad.functor.obj(cc)
    for fidx in itertools.product(range(1), repeat=2):
        f = FinSetArrow(A2, bb, fidx)
        for wfi in itertools.product(range(2), repeat=len(pb)):
            alg_f = RAlgebraArrow(aw, f, FinSetArrow(pb, A2, wfi))
            if not alg_f.validate().ok:
                continue
            for g, wg in [(FinSetArrow(bb, cc, (0,)), FinSetArrow(pc, bb, (0, 0)))]:
                alg_g = RAlgebraArrow(aw, g, wg)
                assert alg_g.validate().ok
                comp = r_algebra_compose(alg_g, alg_f)
                lhs = wm.phi(comp)
                rhs = wm.kleisli.compose(wm.phi(alg_f), wm.phi(alg_g))
                assert lhs == rhs


def test_kleisli_span_roundtrip_exact():
    for aw in (SPLIT, PSPLIT):
        wm = WeakMapCategory(aw)
        qa = wm.q.functor.obj(A2)
        for idx in itertools.product(range(2), repeat=len(qa)):
            u = wm.kleisli.hom(A2, B2)[0].__class__(A2, B2, FinSetArrow(qa, B2, idx))
            s = kleisli_to_span(wm, u)
            assert s.left.validate().ok
            back = span_to_kleisli(wm, s)
            assert back == u


def test_identity_span_maps_to_kleisli_identity():
    for aw in (SPLIT, PSPLIT):
        wm = WeakMapCategory(aw)
        s = identity_span(aw, A2)
        assert span_to_kleisli(wm, s) == wm.kleisli.identity(A2)


def test_span_compose_matches_kleisli_compose_split():
    aw = SPLIT
    wm = WeakMapCategory(aw)
    spans_ab = list(all_spans(aw, A2, B2, 2))
    spans_ba = list(all_spans(aw, B2, A2, 2))
    n = 0
    for s in spans_ab:
        ks = span_to_kleisli(wm, s)
        for t in spans_ba:
            kt = span_to_kleisli(wm, t)
            st = span_compose(s, t)
            assert st.left.validate().ok
            lhs = span_to_kleisli(wm, st)
            rhs = wm.kleisli.compose(kt, ks)
            assert lhs == rhs
            n += 1
    assert n == 64  # 8 spans each way at apex <= 2, paired exhaustively


def test_span_compose_matches_kleisli_compose_coreader():
    aw = PSPLIT
    wm = WeakMapCategory(aw)
    a1, b1 = ("a0",), ("b0", "b1")
    spans_ab = list(all_spans(aw, a1, b1, 2))
    spans_ba = list(all_spans(aw, b1, a1, 2))[:40]
    for s in spans_ab[:40]:
        ks = span_to_kleisli(wm, s)
        for t in spans_ba:
            st = span_compose(s, t)
            lhs = span_to_kleisli(wm, st)
            rhs = wm.kleisli.compose(span_to_kleisli(wm, t), ks)
            assert lhs == rhs


def test_identity_span_is_unit_for_composition_up_to_kappa():
    aw = SPLIT
    wm = WeakMapCategory(aw)
    for s in all_spans(aw, A2, B2, 2):
        left_unit = span_compose(identity_span(aw, A2), s)
        right_unit = span_compose(s, identity_span(aw, B2))
        target = span_to_kleisli(wm, s)
        assert span_to_kleisli(wm, left_unit) == target
        assert span_to_kleisli(wm, right_unit) == target
        # right unit does not even change the span up to iso
        assert any(sorted(r.idx) == list(range(len(s.apex)))
                   for r in span_maps(right_unit, s))


def test_span_maps_find_every_apex_relabelling():
    # permuting the apex labels gives an isomorphic span, and the
    # permutation back is one of its span maps
    pairs = 0
    for s in all_spans(SPLIT, A2, B2, 3):
        k = len(s.apex)
        for perm in itertools.permutations(range(k)):
            inv = [0] * k
            for i, p in enumerate(perm):
                inv[p] = i
            l2 = tuple(s.left.arrow.idx[inv[i]] for i in range(k))
            r2 = tuple(s.right.idx[inv[i]] for i in range(k))
            w2 = tuple(perm[j] for j in s.left.witness.idx)
            s2 = _api_span(SPLIT, A2, B2, k, l2, w2, r2)
            assert FinSetArrow(s2.apex, s.apex, tuple(inv)) in span_maps(s2, s)
            pairs += 1
    assert pairs == 592


def test_span_maps_compose_and_preserve_kappa():
    aw = SPLIT
    wm = WeakMapCategory(aw)
    spans = list(all_spans(aw, A2, B2, 2))
    found = 0
    for s in spans:
        ks = span_to_kleisli(wm, s).under
        for t in spans:
            for r in span_maps(s, t):
                found += 1
                assert span_to_kleisli(wm, t).under == ks
    assert found > 0


CENSUS_AWFS = [PSplitEpiAwfs(C, coreader_comonad(C, canonical_set(2, "s"))),
               PSplitEpiAwfs(C, identity_comonad(C))]


@pytest.fixture
def tried(monkeypatch):
    """The candidates span_maps hands to span_is_map, in order."""
    seen = []
    monkeypatch.setattr(oracles, "span_is_map",
                        lambda r, s, t: seen.append(r) or span_is_map(r, s, t))
    return seen


def test_span_maps_equal_the_filtered_hom_set(tried):
    # the solved search against the brute-force filter of the whole
    # hom-set, lists compared with their order.  That every candidate
    # tried is a span map is checked too: list equality alone cannot see
    # a lost fibre or witness constraint, since span_is_map filters it
    pairs = 0
    for aw in CENSUS_AWFS:
        for a, b, bound in ((1, 2, 3), (2, 1, 3), (2, 2, 2)):
            census = list(enumerate_spans(aw, canonical_set(a, "a"),
                                          canonical_set(b, "b"), bound))
            for s, t in itertools.product(census, repeat=2):
                tried.clear()
                solved = span_maps(s, t)
                assert solved == [r for r in C.hom(s.apex, t.apex)
                                  if span_is_map(r, s, t)], (s, t)
                assert tried == solved, (s, t)
                pairs += 1
    assert pairs == 10256


def test_span_maps_witness_clash_has_no_map(tried):
    # P(a0) has two points over a0; s sends both to its one apex point, t
    # to two points with the same legs, so r would need two values there
    a1 = canonical_set(1, "a")
    s = _api_span(PSPLIT, a1, B2, 1, (0,), (0, 0), (0,))
    t = _api_span(PSPLIT, a1, B2, 2, (0, 0), (0, 1), (0, 0))
    assert s.left.validate().ok and t.left.validate().ok
    assert len(C.hom(s.apex, t.apex)) == 2
    assert not any(span_is_map(r, s, t) for r in C.hom(s.apex, t.apex))
    assert span_maps(s, t) == [] and tried == []


def test_span_equiv_equal_and_one_step():
    aw = SPLIT
    wm = WeakMapCategory(aw)
    s = next(iter(all_spans(aw, A2, B2, 2)))
    res = span_equiv(wm, s, s)
    assert res.kind == "connected"
    assert res.zigzag.verify()
    # a span and its canonical replacement are one span map apart
    c = kleisli_to_span(wm, span_to_kleisli(wm, s))
    res = span_equiv(wm, s, c)
    assert res.equivalent
    assert res.zigzag.verify()


def _two_step_pair():
    """s2, t2 with one co-Kleisli image; the extra points have signatures
    the other span lacks, so no span map runs either way between them."""
    s2 = _api_span(SPLIT, A2, B2, 3, (0, 1, 0), (0, 1), (0, 0, 1))
    t2 = _api_span(SPLIT, A2, B2, 3, (0, 1, 1), (0, 1), (0, 0, 1))
    return s2, t2


def _zigzag_through_canonical(wm, s2, t2):
    """s2 -- c -- t2 through the canonical span c of their class, glued
    from the one-step results span_equiv(wm, s2, c) and (wm, t2, c)."""
    c = kleisli_to_span(wm, span_to_kleisli(wm, s2))
    left, right = span_equiv(wm, s2, c), span_equiv(wm, t2, c)
    assert left.equivalent and right.equivalent
    flip = {"fwd": "bwd", "bwd": "fwd"}
    return SpanZigzag((s2, c, t2),
                      left.zigzag.maps + right.zigzag.maps,
                      left.zigzag.dirs + (flip[right.zigzag.dirs[0]],))


def test_span_equiv_canonical_domination_two_step():
    aw = SPLIT
    wm = WeakMapCategory(aw)
    # kappa(s) = (0,0), kappa(t) = (0,1): different, must NOT be equivalent
    s = _api_span(aw, A2, B2, 2, (0, 1), (0, 1), (0, 0))
    t = _api_span(aw, A2, B2, 2, (0, 1), (0, 1), (0, 1))
    assert span_equiv(wm, s, t).kind == "not-found-within-bounds"
    # same kappa and no direct map: span_equiv, one step only, finds
    # nothing, but each reaches the canonical span in one step
    s2, t2 = _two_step_pair()
    assert not span_maps(s2, t2) and not span_maps(t2, s2)
    assert span_to_kleisli(wm, s2) == span_to_kleisli(wm, t2)
    assert span_equiv(wm, s2, t2).kind == "not-found-within-bounds"
    zz = _zigzag_through_canonical(wm, s2, t2)
    assert zz.verify()
    assert zz.dirs == ("bwd", "fwd")  # s2 <- canonical -> t2
    assert zz.maps[0] == wm.phi(s2.left).under


def test_zigzag_with_a_non_map_does_not_verify():
    wm = WeakMapCategory(SPLIT)
    s2, t2 = _two_step_pair()
    zz = _zigzag_through_canonical(wm, s2, t2)
    c = zz.spans[1]
    bad = next(r for r in C.hom(c.apex, t2.apex) if not span_is_map(r, c, t2))
    assert not SpanZigzag(zz.spans, (zz.maps[0], bad), zz.dirs).verify()


def test_span_equiv_respects_tight_bounds():
    # one step is the whole search, so the bounds change no answer
    wm = WeakMapCategory(SPLIT)
    s2, t2 = _two_step_pair()
    c = kleisli_to_span(wm, span_to_kleisli(wm, s2))
    for kw in ({}, {"zigzag_bound": 1}, {"apex_bound": 1}):
        assert span_equiv(wm, s2, t2, **kw).kind == "not-found-within-bounds"
        assert span_equiv(wm, s2, c, **kw).equivalent


def test_span_equiv_rejects_boundary_mismatch():
    aw = SPLIT
    wm = WeakMapCategory(aw)
    s = identity_span(aw, A2)
    t = identity_span(aw, B2)
    with pytest.raises(CategoryError):
        span_equiv(wm, s, t)


def test_compare_hom_split_counts():
    cmp = compare_hom(SPLIT, a_size=2, b_size=2, apex_bound=4)
    assert cmp.report.ok, cmp.report.failures()[:4]
    assert cmp.kleisli_count == 4
    assert cmp.span_class_count == 4
    assert cmp.span_count > 500
    assert all(c.count > 0 for c in cmp.classes)


def test_compare_hom_coreader_counts():
    cmp = compare_hom(PSPLIT, a_size=2, b_size=2, apex_bound=4, full_upto=2)
    assert cmp.report.ok, cmp.report.failures()[:4]
    assert cmp.kleisli_count == 16
    assert cmp.span_class_count == 16


def test_compare_hom_classes_are_balanced_split():
    # the class census is label-symmetric in B, so swapping b0/b1 permutes
    # classes without changing sizes
    cmp = compare_hom(SPLIT, a_size=2, b_size=2, apex_bound=4)
    sizes = {}
    for cl in cmp.classes:
        swapped = tuple(1 - x for x in cl.kappa)
        sizes[cl.kappa] = cl.count
    for cl in cmp.classes:
        swapped = tuple(1 - x for x in cl.kappa)
        assert sizes[swapped] == cl.count


def test_corrupted_kappa_fails_each_census_family(monkeypatch, family_fails):
    # span_to_kleisli swaps b0 and b1 on every span whose apex has two points
    monkeypatch.setattr(spans_module, "span_to_kleisli",
                        kappa_swapped(spans_module.span_to_kleisli))
    rep = compare_hom(SPLIT, a_size=2, b_size=2, apex_bound=3).report
    for name in ("api.kappa", "roundtrip", "kappa.invariant"):
        family_fails(rep, name)
    assert rep.lines()[-1].startswith("EQ kappa.invariant @ ")
    assert "EQ roundtrip @ 4 co-Kleisli arrows : FAIL(lhs=4 failing, rhs=0)" in rep.lines()
    # canonical spans are keyed by the (corrupted) co-Kleisli image, not by
    # kappa, so a two-point apex meets a canonical span it does not reach
    rep = compare_hom(SPLIT, a_size=2, b_size=2, apex_bound=3, reach=True).report
    reach = family_fails(rep, "canonical.reach")
    assert len(reach) == 8
    # each item's lhs is the witness checked: phi of the span's left leg
    wm = WeakMapCategory(SPLIT)
    by_repr = {repr(s): s for s in all_spans(SPLIT, A2, B2, 3)}
    assert all(c.lhs == repr(wm.phi(by_repr[c.subject].left).under)
               for c in reach)


@pytest.mark.parametrize("corrupt", [False, True],
                         ids=["lawful", "corrupted-kappa"])
def test_witness_verdict_agrees_with_span_search(monkeypatch, corrupt):
    """canonical.reach checks that phi of a span's left leg is a span map
    from its canonical span; the search span_equiv gives the same verdict
    on every span with A, B in {1, 2} and apex <= 3, lawful or under the
    corrupted kappa, which breaks 20 spans over SPLIT and 30 over PSPLIT."""
    if corrupt:
        monkeypatch.setattr(spans_module, "span_to_kleisli",
                            kappa_swapped(spans_module.span_to_kleisli))
    unreached = []
    for aw in (SPLIT, PSPLIT):
        wm = WeakMapCategory(aw)
        n = 0
        for a, b in itertools.product((1, 2), repeat=2):
            for s in all_spans(aw, canonical_set(a, "a"), canonical_set(b, "b"), 3):
                u = spans_module.span_to_kleisli(wm, s)
                c = kleisli_to_span(wm, u)
                witness = span_is_map(wm.phi(s.left).under, c, s)
                assert witness == span_equiv(wm, s, c).equivalent, s
                n += not witness
        unreached.append(n)
    assert unreached == ([20, 30] if corrupt else [0, 0])
