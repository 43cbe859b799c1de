import inspect
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakmaps.fincat import (
    CategoryError,
    FinSetArrow,
    CoKleisliCategory,
    KleisliArrow,
    FinSetCategory,
    canonical_set,
    coreader_comonad,
    exception_monad,
    finset_fragment,
    identity_comonad,
    identity_monad,
    validate_category,
    validate_comonad,
    validate_functor,
    validate_monad,
)
from weakmaps.awfs import (
    cofibrant_replacement,
    fragment_arrows,
    replacement_comparison,
    validate_comonad_iso,
)
from weakmaps.schemas import SchemaError, load_category
from generators import fsarrow, graph, image
from oracles import SplitEpiAwfs

C = FinSetCategory()


def test_compose_and_identity():
    f = fsarrow("ab", "xyz", {"a": "z", "b": "x"})
    g = fsarrow("xyz", "pq", {"x": "p", "y": "q", "z": "q"})
    gf = C.compose(g, f)
    assert image(gf, "a") == "q" and image(gf, "b") == "p"
    assert C.compose(f, C.identity("ab")) == f
    assert C.compose(C.identity("xyz"), f) == f


def test_compose_rejects_mismatched_endpoints():
    f = fsarrow("ab", "xy", {"a": "x", "b": "y"})
    with pytest.raises(CategoryError):
        C.compose(f, f)


@pytest.mark.parametrize("field", ["dom", "cod", "idx"])
def test_arrow_fields_cannot_be_assigned_or_deleted(field):
    f = fsarrow("ab", "xy", {"a": "x", "b": "y"})
    with pytest.raises(AttributeError):
        setattr(f, field, ())
    with pytest.raises(AttributeError):
        delattr(f, field)
    with pytest.raises(AttributeError):
        setattr(f, field + "_extra", ())
    assert f == fsarrow("ab", "xy", {"a": "x", "b": "y"})


def test_arrow_equality_is_structural():
    f = FinSetArrow(("a", "b"), ("x", "y"), (1, 0))
    g = FinSetArrow(tuple("ab"), tuple("xy"), tuple([1, 0]))
    assert f is not g and f == g and hash(f) == hash(g)
    assert len({f, g}) == 1
    # same positions, other domain labels
    assert f != FinSetArrow(("a", "c"), ("x", "y"), (1, 0))
    # never equal to the plain triple, from either side, though it hashes
    # the same
    t = (f.dom, f.cod, f.idx)
    assert f != t and t != f and not (f == t) and not (t == f)
    assert hash(f) == hash(t)
    assert f != KleisliArrow(f.dom, f.cod, f.idx)


def test_hom_is_lex_ordered_by_graph():
    homs = C.hom("ab", "xy")
    assert len(homs) == 4
    assert [h.idx for h in homs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert C.hom("a", ()) == []
    assert C.hom((), ()) == [FinSetArrow((), (), ())]


def test_coproduct_is_tagged_union_with_jointly_epic_injections():
    cop = C.coproduct("ab", "bc")
    assert cop.obj == ("L:a", "L:b", "R:b", "R:c")
    covered = set(cop.inl.idx) | set(cop.inr.idx)
    assert covered == set(range(4))
    f = fsarrow("ab", "uv", {"a": "u", "b": "v"})
    g = fsarrow("bc", "uv", {"b": "v", "c": "v"})
    h = cop.copair(f, g)
    assert C.compose(h, cop.inl) == f
    assert C.compose(h, cop.inr) == g
    # copairing is unique: any other arrow out of the union disagrees on a leg
    others = [
        k for k in C.hom(cop.obj, "uv")
        if C.compose(k, cop.inl) == f and C.compose(k, cop.inr) == g
    ]
    assert others == [h]


def test_coproducts_and_coreader_objects_are_built_once():
    # coproduct stays a plain method, so a tracer wrapping methods sees it
    assert inspect.isfunction(FinSetCategory.coproduct)
    assert C.coproduct("ab", "bc") is FinSetCategory().coproduct(("a", "b"), "bc")
    p = coreader_comonad(C, "st")
    assert p.functor.obj(("a",)) is p.functor.obj(("a",))


def test_pullback_elements_and_mediator():
    f = fsarrow("xy", "s", {"x": "s", "y": "s"})
    g = fsarrow("uv", "s", {"u": "s", "v": "s"})
    pb = C.pullback(f, g)
    assert pb.obj == ("(x,u)", "(x,v)", "(y,u)", "(y,v)")
    u = fsarrow("w", "xy", {"w": "y"})
    v = fsarrow("w", "uv", {"w": "u"})
    k = pb.mediate(u, v)
    assert C.compose(pb.p1, k) == u and C.compose(pb.p2, k) == v
    assert image(k, "w") == "(y,u)"


def test_pullback_mediator_rejects_legs_into_other_objects():
    f = fsarrow("xy", "s", {"x": "s", "y": "s"})
    g = fsarrow("uv", "s", {"u": "s", "v": "s"})
    pb = C.pullback(f, g)
    u = fsarrow("w", "xy", {"w": "y"})
    v = fsarrow("w", "uv", {"w": "u"})
    with pytest.raises(CategoryError, match="cone legs"):
        pb.mediate(fsarrow("w", "pq", {"w": "q"}), v)
    with pytest.raises(CategoryError, match="cone legs"):
        pb.mediate(u, fsarrow("w", "rt", {"w": "r"}))


def test_pullback_mediator_rejects_noncommuting_cone():
    f = fsarrow("xy", "st", {"x": "s", "y": "t"})
    g = fsarrow("u", "st", {"u": "s"})
    pb = C.pullback(f, g)
    bad_u = fsarrow("w", "xy", {"w": "y"})
    v = fsarrow("w", "u", {"w": "u"})
    with pytest.raises(CategoryError, match="does not commute"):
        pb.mediate(bad_u, v)


def test_plus_is_copair_of_injected_legs():
    arrows = fragment_arrows(C, 2)
    assert len(arrows) == 11
    for h in arrows:
        for k in arrows:
            cop = C.coproduct(h.dom, k.dom)
            into = C.coproduct(h.cod, k.cod)
            expect = cop.copair(C.compose(into.inl, h), C.compose(into.inr, k))
            assert cop.plus(h, k, into) == expect


@pytest.mark.parametrize("src, dst", [
    (("q", "bc"), ("xy", "z")),  # h.dom
    (("a", "q"), ("xy", "z")),  # k.dom
    (("a", "bc"), ("q", "z")),  # h.cod
    (("a", "bc"), ("xy", "q")),  # k.cod
])
def test_plus_rejects_each_endpoint_mismatch(src, dst):
    h = fsarrow("a", "xy", {"a": "y"})
    k = fsarrow("bc", "z", {"b": "z", "c": "z"})
    assert C.coproduct("a", "bc").plus(h, k, C.coproduct("xy", "z")).idx == (1, 2, 2)
    with pytest.raises(CategoryError, match="plus legs"):
        C.coproduct(*src).plus(h, k, C.coproduct(*dst))


def test_category_laws_on_small_fragment():
    rep = validate_category(C, finset_fragment(2))
    assert rep.ok, rep.failures()


def test_coreader_comonad_laws():
    p = coreader_comonad(C, "st")
    rep = validate_comonad(C, p, finset_fragment(2))
    assert rep.ok, rep.failures()
    # counit projects, comultiplication duplicates the tag
    eps = p.counit(("a", "b"))
    assert image(eps, "(a,s)") == "a" and image(eps, "(b,t)") == "b"
    dup = p.comult(("a",))
    assert image(dup, "(a,t)") == "((a,t),t)"


def test_coreader_arrow_sends_each_pair_label_to_the_image_pair():
    p = coreader_comonad(C, "st")
    arrows = fragment_arrows(C, 3)
    assert len(arrows) == 60
    for f in arrows:
        assert graph(p.functor.arr(f)) == tuple(
            (f"({x},{t})", f"({image(f, x)},{t})") for x in f.dom for t in "st")


def test_coreader_comonad_with_corrupted_comult_fails_coassoc():
    p = coreader_comonad(C, "st")
    good = p.comult

    def bad(x):
        d = good(x)
        if len(d.idx) >= 2:
            lst = list(d.idx)
            # send the second element to the diagonal of the *other* tag
            lst[1] = lst[0]
            return FinSetArrow(d.dom, d.cod, tuple(lst))
        return d

    p.comult = bad
    rep = validate_comonad(C, p, [("a", "b")])
    assert not rep.ok
    names = {c.name for c in rep.failures()}
    assert names & {"comonad.coassoc", "comonad.counit.left", "comonad.counit.right"}


def test_exception_monad_laws_and_collision():
    t = exception_monad(C, ("err",))
    rep = validate_monad(C, t, finset_fragment(2))
    assert rep.ok, rep.failures()
    # E may reuse a carrier label: X + E tags both sides apart
    t = exception_monad(C, ("x1",))
    assert t.functor.obj(("x0", "x1")) == ("L:x0", "L:x1", "R:x1")
    rep = validate_monad(C, t, finset_fragment(2))
    assert rep.ok, rep.failures()


def test_exception_monad_mult_folds_the_two_copies_of_e():
    t = exception_monad(C, ("e",))
    tx = t.functor.obj(("x0",))
    mu = t.mult(("x0",))
    assert mu.dom == t.functor.obj(tx) == ("L:L:x0", "L:R:e", "R:e")
    assert mu.cod == tx == ("L:x0", "R:e")
    assert graph(mu) == (("L:L:x0", "L:x0"), ("L:R:e", "R:e"), ("R:e", "R:e"))


def test_identity_comonad_and_monad_are_lawful():
    assert validate_comonad(C, identity_comonad(C), finset_fragment(2)).ok
    assert validate_monad(C, identity_monad(C), finset_fragment(2)).ok


# Every itemised FAIL record carries both sides of its equation.

SWAP = fsarrow(("x0", "x1"), ("x0", "x1"), {"x0": "x1", "x1": "x0"})


def _swap_on_pairs(good):
    """Corrupt a structure map: compose it with the swap on 2-sets."""
    def bad(x):
        m = good(x)
        return C.compose(SWAP, m) if tuple(x) == SWAP.dom else m
    return bad


def _failures_named(rep, name):
    found = [c for c in rep.failures() if c.name == name]
    assert found, f"no {name} failure"
    for c in found:
        assert c.lhs and c.rhs and c.lhs != c.rhs
        assert f"FAIL(lhs={c.lhs}, rhs={c.rhs})" in c.line()
    return found


def test_compose_endpoints_failure_has_both_sides():
    class MisreportedCod(FinSetCategory):
        def cod(self, f):
            return f.cod + ("z",) if len(f.dom) == 2 else f.cod

    rep = validate_category(MisreportedCod(), finset_fragment(2))
    found = _failures_named(rep, "compose.endpoints")
    assert (found[0].lhs, found[0].rhs) == ("{x0,x1} -> {x0,z}", "{x0,x1} -> {x0}")


def test_comonad_comult_natural_failure_has_both_sides():
    p = identity_comonad(C)
    p.comult = _swap_on_pairs(p.comult)
    _failures_named(validate_comonad(C, p, finset_fragment(2)),
                    "comonad.comult.natural")


def test_monad_unit_natural_failure_has_both_sides():
    t = identity_monad(C)
    t.unit = _swap_on_pairs(t.unit)
    _failures_named(validate_monad(C, t, finset_fragment(2)),
                    "monad.unit.natural")


def test_monad_mult_natural_failure_has_both_sides():
    t = identity_monad(C)
    t.mult = _swap_on_pairs(t.mult)
    _failures_named(validate_monad(C, t, finset_fragment(2)),
                    "monad.mult.natural")


# Each aggregate line fails with its itemised failures and counts them.

FRAGMENT = "fragment of 3 objects"  # finset_fragment(2): sizes 0, 1, 2


def test_functor_compose_aggregate_fails(family_fails):
    p = identity_comonad(C)
    p.functor.arr = lambda f: C.compose(SWAP, f) if f.cod == SWAP.dom else f
    family_fails(validate_functor(C, p.functor, finset_fragment(2)), "Id.compose",
                 subject=FRAGMENT)


def test_comonad_natural_aggregate_fails(family_fails):
    p = identity_comonad(C)
    p.comult = _swap_on_pairs(p.comult)
    family_fails(validate_comonad(C, p, finset_fragment(2)), "comonad.natural",
                 {"comonad.counit.natural", "comonad.comult.natural"},
                 subject=FRAGMENT)


def test_monad_natural_aggregate_fails(family_fails):
    t = identity_monad(C)
    t.unit = _swap_on_pairs(t.unit)
    family_fails(validate_monad(C, t, finset_fragment(2)), "monad.natural",
                 {"monad.unit.natural", "monad.mult.natural"},
                 subject=FRAGMENT)


def test_iso_natural_aggregate_fails(family_fails):
    aw = SplitEpiAwfs(C)
    tau = _swap_on_pairs(lambda b: replacement_comparison(aw, b)[0])
    rep = validate_comonad_iso(C, cofibrant_replacement(aw), aw.comonad, tau,
                               lambda b: replacement_comparison(aw, b)[1],
                               finset_fragment(2))
    family_fails(rep, "iso.natural", subject=FRAGMENT)


def test_co_kleisli_hom_count_and_identity():
    # hom_kl(A,B) = functions AxS -> B: with |A|=1, |S|=2, |B|=2 that is 2^2 = 4
    p = coreader_comonad(C, "st")
    kl = CoKleisliCategory(C, p)
    homs = kl.hom(("a",), ("x", "y"))
    assert len(homs) == 4
    i = kl.identity(("a",))
    for f in homs:
        assert kl.compose(f, kl.identity(f.dom)) == f
        assert kl.compose(kl.identity(f.cod), f) == f
    assert i.under == p.counit(("a",))


def test_co_kleisli_associativity_exhaustive_small():
    kl = CoKleisliCategory(C, coreader_comonad(C, "s"))
    rep = validate_category(kl, finset_fragment(2))
    assert rep.ok, rep.failures()
    # |hom(a, b)| = |b|^|a| for |S| = 1: sum over sizes a,b,c,d <= 2 of
    # the products of three such counts
    assert "EQ assoc @ 211 triples : PASS" in rep.lines()


def test_co_kleisli_cofree_is_functorial():
    p = coreader_comonad(C, "st")
    kl = CoKleisliCategory(C, p)
    f = fsarrow("ab", "xy", {"a": "x", "b": "y"})
    g = fsarrow("xy", "pq", {"x": "q", "y": "p"})
    assert kl.cofree(C.compose(g, f)) == kl.compose(kl.cofree(g), kl.cofree(f))
    assert kl.cofree(C.identity("ab")) == kl.identity(("a", "b"))


def test_cofree_embedding_is_faithful_for_coreader():
    # the counit of the coreader comonad is split epi, so distinct base
    # arrows stay distinct after precomposition with it
    p = coreader_comonad(C, "st")
    kl = CoKleisliCategory(C, p)
    seen = {}
    for h in C.hom(("a", "b"), ("x", "y")):
        img = kl.cofree(h)
        assert img.under not in seen
        seen[img.under] = h


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=4),
    m=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_random_composites_are_pointwise_composition(n, m, k, data):
    a, b, c = canonical_set(n, "a"), canonical_set(m, "b"), canonical_set(k, "c")
    fi = data.draw(st.tuples(*[st.integers(0, m - 1)] * n))
    gi = data.draw(st.tuples(*[st.integers(0, k - 1)] * m))
    f, g = FinSetArrow(a, b, fi), FinSetArrow(b, c, gi)
    gf = C.compose(g, f)
    for x in a:
        assert image(gf, x) == image(g, image(f, x))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=3), data=st.data())
def test_coreader_arrow_matches_closed_form(n, data):
    # one comonad per example, so its block table sees the empty domain and
    # codomains that grow and shrink between calls: the drawn sizes, then
    # a fixed tail that grows to 7 and drops back to 1
    p = coreader_comonad(C, canonical_set(n, "s"))
    drawn = data.draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 6)),
                               max_size=6))
    for dom_n, cod_n in [(0, 2), *drawn, (2, 7), (0, 1), (3, 1)]:
        idx = data.draw(st.tuples(*[st.integers(0, cod_n - 1)] * dom_n))
        f = FinSetArrow(canonical_set(dom_n, "a"), canonical_set(cod_n, "b"), idx)
        pf = p.functor.arr(f)
        assert pf.idx == tuple(f.idx[i] * n + t for i in range(dom_n) for t in range(n))
        assert (pf.dom, pf.cod) == (p.functor.obj(f.dom), p.functor.obj(f.cod))


# The kernel's index formulas as list comprehensions over positions: the
# oracle for the gathers that compute them.
def compose_idx(g, f):
    return tuple([g.idx[i] for i in f.idx])


def plus_idx(h, k):
    return h.idx + tuple([j + len(h.cod) for j in k.idx])


def coreader_idx(f, n):
    return tuple([j * n + t for j in f.idx for t in range(n)])


def hom_idxs(a, b):
    if a and not b:
        return []
    return list(itertools.product(range(len(b)), repeat=len(a)))


@settings(max_examples=80, deadline=None)
@given(s_n=st.integers(1, 3), e_n=st.integers(0, 2), data=st.data())
def test_kernel_matches_list_formulas(s_n, e_n, data):
    # one comonad and one monad per example, so the coreader's block table
    # sees codomains that grow and shrink: the drawn ones, then a tail that
    # runs through the empty and one-point domains and grows to 7 and back
    p = coreader_comonad(C, canonical_set(s_n, "s"))
    e = canonical_set(e_n, "e")
    t = exception_monad(C, e)

    def arrow(dom, cod):
        idx = data.draw(st.tuples(*[st.integers(0, len(cod) - 1)] * len(dom)))
        return FinSetArrow(dom, cod, idx)

    def size(upper, below):
        return data.draw(st.integers(0, upper)) if below else 0

    drawn = []
    for _ in range(data.draw(st.integers(0, 5))):
        c = data.draw(st.integers(0, 5))
        b = size(4, c)
        drawn.append((size(4, b), b, c, size(3, b)))
    for sizes in [*drawn, (0, 0, 0, 0), (1, 1, 1, 1), (0, 2, 7, 1),
                  (1, 7, 2, 0), (2, 1, 1, 1), (1, 3, 1, 2)]:
        sa, sb, sc, sd = map(canonical_set, sizes, "abcd")
        f, g, u = arrow(sa, sb), arrow(sb, sc), arrow(sd, sb)
        cop_fu, cop_fg, cop_cods = (C.coproduct(sa, sd), C.coproduct(sa, sb),
                                    C.coproduct(sb, sc))
        results = [
            (C.compose(g, f), FinSetArrow(sa, sc, compose_idx(g, f))),
            (cop_fu.copair(f, u), FinSetArrow(cop_fu.obj, sb, f.idx + u.idx)),
            (cop_fg.plus(f, g, cop_cods),
             FinSetArrow(cop_fg.obj, cop_cods.obj, plus_idx(f, g))),
            (p.functor.arr(f), FinSetArrow(p.functor.obj(sa), p.functor.obj(sb),
                                           coreader_idx(f, s_n))),
            (t.functor.arr(f), FinSetArrow(t.functor.obj(sa), t.functor.obj(sb),
                                           plus_idx(f, C.identity(e)))),
        ]
        for got, want in results:
            assert got == want and type(got.idx) is tuple
        homs = C.hom(sa, sb)
        assert [h.idx for h in homs] == hom_idxs(sa, sb)
        assert all((h.dom, h.cod) == (sa, sb) for h in homs)


# --- table backend ---------------------------------------------------------

WALKING_ARROW = {
    "objects": ["0", "1"],
    "arrows": [
        {"id": "i0", "dom": "0", "cod": "0"},
        {"id": "i1", "dom": "1", "cod": "1"},
        {"id": "u", "dom": "0", "cod": "1"},
    ],
    "identities": {"0": "i0", "1": "i1"},
    "compose": [
        ["i0", "i0", "i0"],
        ["i1", "i1", "i1"],
        ["u", "i0", "u"],
        ["i1", "u", "u"],
    ],
}


def test_table_category_roundtrip_and_laws():
    cat = load_category(WALKING_ARROW)
    rep = validate_category(cat, ["0", "1"])
    assert rep.ok, rep.failures()
    assert cat.hom("0", "1") == ["u"]
    assert cat.compose("i1", "u") == "u"


def test_table_category_corrupted_compose_is_reported():
    # composing u : 0 -> 1 with itself is ill-typed
    bad = {**WALKING_ARROW, "compose": WALKING_ARROW["compose"][:3] + [["u", "u", "u"]]}
    with pytest.raises(SchemaError, match=r"\$\.compose\[3\].*not composable"):
        load_category(bad)
    # composable, but the claimed composite has the wrong endpoints
    wrong = {**WALKING_ARROW, "compose": WALKING_ARROW["compose"][:3] + [["i1", "u", "i1"]]}
    with pytest.raises(SchemaError, match=r"\$\.compose\[3\].*endpoints"):
        load_category(wrong)


def test_table_category_unit_violation_detected_by_validator():
    # endpoint-consistent but unital-law-breaking table: compose through a
    # second endomorphism
    data = {
        "objects": ["0"],
        "arrows": [
            {"id": "i0", "dom": "0", "cod": "0"},
            {"id": "e", "dom": "0", "cod": "0"},
        ],
        "identities": {"0": "i0"},
        "compose": [
            ["i0", "i0", "i0"],
            ["e", "i0", "i0"],  # should be e
            ["i0", "e", "e"],
            ["e", "e", "e"],
        ],
    }
    cat = load_category(data)
    rep = validate_category(cat, ["0"])
    assert not rep.ok
    # both composites print, so the two sides of the line differ
    unit, = _failures_named(rep, "id.unit")
    assert (unit.subject, unit.lhs, unit.rhs) == ("'e'", "('e', 'i0')", "('e', 'e')")


def test_table_schema_errors_have_positions():
    with pytest.raises(SchemaError, match=r"\$\.objects"):
        load_category({"objects": "nope"})
    with pytest.raises(SchemaError, match=r"\$\.arrows\[0\]\.dom"):
        load_category({"objects": ["0"], "arrows": [{"id": "f", "dom": "9", "cod": "0"}]})
    with pytest.raises(SchemaError, match=r"\$\.identities"):
        load_category({"objects": ["0"], "arrows": [], "identities": {}})


def test_table_schema_rejects_unknown_keys():
    with pytest.raises(SchemaError, match=r"\$\.limits: unknown key"):
        load_category({**WALKING_ARROW, "limits": {"coproducts": []}})


def test_table_category_wrong_composite_fails_assoc(family_fails):
    # the monoid {e, a, z} with a.a = e and z absorbing, except that the
    # composite a.z is corrupted to a: still unital and well-typed
    arrows = ["e", "a", "z"]
    table = {("a", "a"): "e", ("a", "z"): "a", ("z", "a"): "z", ("z", "z"): "z"}
    data = {
        "objects": ["0"],
        "arrows": [{"id": x, "dom": "0", "cod": "0"} for x in arrows],
        "identities": {"0": "e"},
        "compose": [[g, f, table.get((g, f), g if f == "e" else f)]
                    for g in arrows for f in arrows],
    }
    rep = validate_category(load_category(data), ["0"])
    assert not any(c.name == "id.unit" for c in rep.failures())
    items = family_fails(rep, "assoc")
    assert [c.subject for c in items] == ["h='a' g='a' f='z'",
                                          "h='a' g='z' f='a'"]
    assert rep.lines()[-1] == "EQ assoc @ 27 triples : FAIL(lhs=2 failing, rhs=0)"
