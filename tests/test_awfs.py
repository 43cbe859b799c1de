
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakmaps.fincat import (
    CategoryError,
    FinSetArrow,
    FinSetCategory,
    canonical_set,
    coreader_comonad,
    exception_monad,
    identity_comonad,
    validate_comonad,
)
from weakmaps.awfs import (
    LCoalgebraArrow,
    PSplitEpiAwfs,
    RAlgebraArrow,
    Sketch,
    SketchTriangle,
    TAlgebra,
    TSplitMono,
    canonical_filler,
    cartesian_lift,
    cofibrant_replacement,
    fragment_arrows,
    free_algebra,
    identity_algebra,
    r_algebra_compose,
    replacement_comparison,
    sketch_canonical_lift,
    sketch_is_model_lift,
    sketch_is_model_square,
    squares_between,
    validate_awfs,
    validate_comonad_iso,
    validate_e_functoriality,
)
from weakmaps import awfs as awfs_module
from weakmaps.report import CheckReport
from generators import fsarrow, graph, image
from oracles import SplitEpiAwfs, awfs_equal_on

C = FinSetCategory()
SPLIT = SplitEpiAwfs(C)
CO2 = coreader_comonad(C, "st")
PSPLIT = PSplitEpiAwfs(C, CO2)


def test_factorisation_shape():
    f = fsarrow("ab", "xy", {"a": "x", "b": "x"})
    lam, rho = SPLIT.lam(f), SPLIT.rho(f)
    assert C.compose(rho, lam) == f
    assert SPLIT.E(f) == ("L:a", "L:b", "R:x", "R:y")
    assert image(rho, "R:y") == "y" and image(rho, "L:b") == "x"


def test_all_awfs_laws_small():
    rep = validate_awfs(SPLIT, max_size=2)
    assert rep.ok, rep.failures()[:4]
    rep = validate_awfs(PSPLIT, max_size=2)
    assert rep.ok, rep.failures()[:4]


def test_e_functoriality_small():
    assert validate_e_functoriality(SPLIT, max_size=2).ok
    assert validate_e_functoriality(PSPLIT, max_size=1).ok


def test_p_split_at_identity_comonad_agrees_with_split_epi():
    # the P = Id side as `awfs check --builtin splitepi` builds it, on its
    # default fragment
    rep = awfs_equal_on(SPLIT, PSplitEpiAwfs(C, identity_comonad(C)), max_size=3)
    assert rep.ok, rep.failures()[:4]
    assert "EQ agree.e @ 74112 squares : PASS" in rep.lines()


class BrokenComult(SplitEpiAwfs):
    # drops the inner injection, so the second copair leg has the wrong domain
    def comult(self, f):
        c2 = self.cop(self.lam(f))
        return self.cop(f).copair(c2.inl, c2.inr)


NAT = ("nat.lambda", "nat.rho", "nat.comult", "nat.mult")
FRAG1 = fragment_arrows(C, 1)  # {} -> {}, {} -> {x0}, {x0} -> {x0}
FRAG1_ENDS = {(f.dom, f.cod) for f in FRAG1}


def test_broken_comult_is_reported_not_raised(family_fails):
    rep = validate_awfs(BrokenComult(C), max_size=1)
    assert not rep.ok
    failing = {c.name for c in rep.failures()}
    assert failing & {"comonad.counit1", "comonad.counit2", "comonad.coassoc",
                      "comult.square"}
    # untouched structure still passes
    assert not any(c.name in ("factor", "monad.unit1") for c in rep.failures())
    # the two arrows with a codomain have no comult: each is one failing
    # item of every naturality family, and their squares are skipped
    for name in NAT:
        items = family_fails(rep, name, subject="1 squares, 2 ill-typed arrows")
        assert [c.subject for c in items] == [repr(f) for f in FRAG1[1:]]
        assert all(c.lhs == "<ill-typed>" for c in items)


class MisplacedEarr(SplitEpiAwfs):
    # E(h, k) from the ends of one arrow of FRAG1 to those of another lands
    # in the source's E, not the target's
    def earr(self, h, k):
        src, dst = (h.dom, k.dom), (h.cod, k.cod)
        if src != dst and src in FRAG1_ENDS and dst in FRAG1_ENDS:
            return C.identity(C.coproduct(*src).obj)
        return super().earr(h, k)


def test_ill_typed_square_is_reported_not_raised(family_fails):
    rep = validate_awfs(MisplacedEarr(C), max_size=1)
    # of the 6 squares, the 3 between distinct arrows have an E(h, k)
    # that rho(g) cannot follow; the per-arrow laws never use such a square
    for name in NAT:
        items = family_fails(rep, name, subject="6 squares")
        assert len(items) == 3
        assert all(c.lhs == "<ill-typed>" and "not composable" in c.rhs
                   for c in items)
    assert all(c.name in NAT for c in rep.failures())


class CountingFinSet(FinSetCategory):
    def __init__(self):
        self.coproducts = Counter()
        self.composites = self.hom_arrows = 0

    def hom(self, a, b):
        arrows = super().hom(a, b)
        self.hom_arrows += len(arrows)
        return arrows

    def coproduct(self, a, b):
        self.coproducts[(tuple(a), tuple(b))] += 1
        return super().coproduct(a, b)

    def compose(self, g, f):
        self.composites += 1
        return super().compose(g, f)


MAKERS = [SplitEpiAwfs, lambda cat: PSplitEpiAwfs(cat, coreader_comonad(cat, "st"))]


@pytest.mark.parametrize("make", MAKERS, ids=["splitepi", "coreader"])
def test_validate_awfs_builds_each_coproduct_once(make):
    # a work count, not a timing: E(f) = A + PB depends only on f's
    # endpoints, so each coproduct is built once however many squares use it
    cat = CountingFinSet()
    assert validate_awfs(make(cat), 2).ok
    assert cat.coproducts and set(cat.coproducts.values()) == {1}


@pytest.mark.parametrize("make,composites", zip(MAKERS, (1010, 440)),
                         ids=["splitepi", "coreader"])
def test_naturality_sweep_composes_no_square(make, composites):
    # a work count: each of the 8 sides of a square is a gather of index
    # tuples, so `compose` runs only in the per-arrow laws and the structure
    # maps; composing every side of the 249 squares would add 8 * 249 calls
    cat = CountingFinSet()
    assert validate_awfs(make(cat), 2).ok
    assert cat.composites == composites


@pytest.mark.parametrize("make", MAKERS, ids=["splitepi", "coreader"])
def test_naturality_sweep_reads_squares_between_as_a_module_global(make, monkeypatch):
    # what a traced benchmark run counts: a tracer rebinds the module global
    # `squares_between` to a wrapper that unpacks each call as exactly
    # (cat, f, g) and counts its yields, and it counts `hom`'s arrows; a
    # sweep that bound the generator at import time or enumerated squares
    # itself would leave those counts short
    calls, yields = [], 0
    inner = awfs_module.squares_between

    def counting(*args, **kwargs):
        nonlocal yields
        calls.append((len(args), kwargs))
        for square in inner(*args, **kwargs):
            yields += 1
            yield square

    monkeypatch.setattr(awfs_module, "squares_between", counting)
    cat = CountingFinSet()
    assert validate_awfs(make(cat), 2).ok
    assert (calls, yields) == ([(3, {})] * 121, 249)
    assert cat.hom_arrows == 11


def counting_earr(cls):
    class CountingEarr(cls):
        calls = 0

        def earr(self, h, k):
            self.calls += 1
            return super().earr(h, k)
    return CountingEarr


@pytest.mark.parametrize("make", [
    lambda: counting_earr(SplitEpiAwfs)(C),
    lambda: counting_earr(PSplitEpiAwfs)(C, CO2),
], ids=["splitepi", "coreader"])
def test_validate_awfs_evaluates_e_once_per_pair(make):
    # a work count: E(h, k) reads only h and k, so the naturality sweep
    # evaluates E(h,k), E(h,E(h,k)) and E(E(h,k),k) once per distinct
    # (h, k), not once per square; the per-arrow laws take 6 E-values each.
    # (h, k) is its index pair keyed with its ends: one pair can repeat
    # across ends
    fs = fragment_arrows(C, 2)
    squares = [(f.dom, g.dom, f.cod, g.cod, hk)
               for f in fs for g in fs for hk in squares_between(C, f, g)]
    assert (len(fs), len(squares), len(set(squares))) == (11, 249, 95)
    aw = make()
    assert validate_awfs(aw, 2).ok
    assert aw.calls == 6 * 11 + 3 * 95


ONE = fragment_arrows(C, 1)[-1]  # the arrow {x0} -> {x0}
TWO = fragment_arrows(C, 2)[2]  # the arrow {} -> {x0,x1}


class BrokenEarr(SplitEpiAwfs):
    # reverses E(h, k) when both its source and target ends are those of ONE
    # (E = {L:x0,R:x0}) or both are those of TWO (E = {R:x0,R:x1})
    def earr(self, h, k):
        e = super().earr(h, k)
        ends = (h.dom, k.dom)
        if ends == (h.cod, k.cod) and ends in ((ONE.dom, ONE.cod), (TWO.dom, TWO.cod)):
            return FinSetArrow(e.dom, e.cod, e.idx[::-1])
        return e


def test_corrupted_earr_fails_each_square_family(family_fails):
    bad = BrokenEarr(C)
    rep = validate_awfs(bad, max_size=2)
    square = f"({ONE!r},{ONE!r}): {ONE!r} -> {ONE!r}"
    assert [c.subject for c in family_fails(rep, "nat.lambda")] == [square]
    for name in ("nat.comult", "nat.mult"):
        assert square in [c.subject for c in family_fails(rep, name)]
    # on TWO, E(1, k) only permutes the points over the codomain, which
    # rho sees: the squares with k = 1 and k = swap fail
    assert len(family_fails(rep, "nat.rho")) == 2
    items = family_fails(validate_e_functoriality(bad, max_size=1), "e.compose")
    assert len(items) == 2 and items[-1].subject == (
        f"({ONE!r},{ONE!r}) then ({ONE!r},{ONE!r}): {ONE!r} -> {ONE!r} -> {ONE!r}")
    items = family_fails(awfs_equal_on(SPLIT, bad, max_size=1), "agree.e")
    assert [c.subject for c in items] == [f"({ONE!r},{ONE!r})"]


X0, X01 = C.identity(canonical_set(1)), C.identity(canonical_set(2))


class OnePairEarr(SplitEpiAwfs):
    # reverses E at the one pair (1_{x0}, 1_{x0,x1}): the squares f -> f of
    # both arrows f: {x0} -> {x0,x1} share it, so the second is a table hit
    hits = 0

    def earr(self, h, k):
        e = super().earr(h, k)
        if (h, k) == (X0, X01):
            self.hits += 1
            return FinSetArrow(e.dom, e.cod, e.idx[::-1])
        return e


def test_square_on_a_cached_pair_keeps_its_item(family_fails):
    bad = OnePairEarr(C)
    rep = validate_awfs(bad, max_size=2)
    fs = C.hom(canonical_set(1), canonical_set(2))
    assert [c.subject for c in family_fails(rep, "nat.lambda")] == [
        f"({X0!r},{X01!r}): {f!r} -> {f!r}" for f in fs]
    # the two e.id laws, then one table entry for both squares
    assert bad.hits == 3


def relabel(x):
    return tuple(f"{label}'" for label in x)


class Altered(SplitEpiAwfs):
    # lawful but for the structure map `part` at the arrow `at`, which
    # `alter` replaces
    def __init__(self, cat, part, at):
        super().__init__(cat)
        self.lawful, self.part, self.at = SplitEpiAwfs(cat), part, at

    def altered(self, part, f):
        m = getattr(self.lawful, part)(f)
        return self.alter(m) if (part, f) == (self.part, self.at) else m

    def lam(self, f):
        return self.altered("lam", f)

    def rho(self, f):
        return self.altered("rho", f)

    def comult(self, f):
        return self.altered("comult", f)

    def mult(self, f):
        return self.altered("mult", f)


class Retyped(Altered):
    # one end of one structure map at ONE lands in or starts from a
    # relabelled set of the same size, and the map keeps its index tuple;
    # squares out of or into ONE meet that end once where two sides compose
    # (an ill-typed square) and once where two composites are compared (a
    # failing item whose two sides have equal index tuples)
    def __init__(self, cat, part, end):
        super().__init__(cat, part, ONE)
        self.end = end

    def alter(self, m):
        if self.end == "dom":
            return FinSetArrow(relabel(m.dom), m.cod, m.idx)
        return FinSetArrow(m.dom, relabel(m.cod), m.idx)


class Reindexed(Altered):
    # one structure map at `at` has its index tuple shifted by one modulo
    # its codomain, its ends kept.  The two arrows {x0} -> {x0,x1} share
    # their ends and, lawful, their lam, comult and mult, so squares out of
    # both read one cached verdict; shifting lam, comult or mult at one of
    # them gives it a class of its own, shifting rho does not
    def alter(self, m):
        return FinSetArrow(m.dom, m.cod, tuple((i + 1) % len(m.cod) for i in m.idx))


def reference_nat(awfs, max_size):
    """The naturality sweep by its definition: per square, E evaluated
    afresh, each side a `cat.compose` and each equation `FinSetArrow ==`;
    a side that does not compose makes the square an ill-typed item."""
    rep, cat = CheckReport(), awfs.cat
    arrows = fragment_arrows(cat, max_size)
    nat = [rep.family(name) for name in NAT]

    def ill_typed(sub, e):
        for fam in nat:
            fam.check(False, sub, "<ill-typed>", str(e))

    typed = []
    for f in arrows:
        try:
            typed.append((f, awfs.lam(f), awfs.rho(f), awfs.comult(f), awfs.mult(f)))
        except CategoryError as e:
            ill_typed(repr(f), e)
    for f, lf, rf, dl_f, mu_f in typed:
        for g, lg, rg, dl_g, mu_g in typed:
            for h_idx, k_idx in squares_between(cat, f, g):
                h, k = FinSetArrow(f.dom, g.dom, h_idx), FinSetArrow(f.cod, g.cod, k_idx)
                sub = f"({h!r},{k!r}): {f!r} -> {g!r}"
                try:
                    e = awfs.earr(h, k)
                    el, er = awfs.earr(h, e), awfs.earr(e, k)
                    sides = [cat.compose(x, y) for x, y in (
                        (e, lf), (lg, h), (rg, e), (k, rf), (el, dl_f), (dl_g, e),
                        (e, mu_f), (mu_g, er))]
                except CategoryError as err:
                    ill_typed(sub, err)
                    continue
                for fam, lhs, rhs in zip(nat, sides[::2], sides[1::2]):
                    fam.check(lhs == rhs, sub, lhs, rhs)
    refused = len(arrows) - len(typed)
    for fam in nat:
        fam.close(f"{fam.n - refused} squares"
                  + (f", {refused} ill-typed arrows" if refused else ""))
    return rep


def nat_lines(rep):
    return [(c.name, c.subject, c.status, c.lhs, c.rhs)
            for c in rep.checks if c.name in NAT]


PARTS = ("lam", "rho", "comult", "mult")
RETYPED = [(part, end) for part in PARTS for end in ("dom", "cod")]
X0_X01 = C.hom(canonical_set(1), canonical_set(2))  # x0 -> x0 and x0 -> x1
REINDEXED = [(part, at) for part in PARTS for at in (0, 1)]


@pytest.mark.parametrize("make", [
    lambda: SPLIT, lambda: PSPLIT, lambda: BrokenComult(C), lambda: MisplacedEarr(C),
    lambda: BrokenEarr(C), lambda: OnePairEarr(C),
    *(lambda p=p, e=e: Retyped(C, p, e) for p, e in RETYPED),
    *(lambda p=p, i=i: Reindexed(C, p, X0_X01[i]) for p, i in REINDEXED),
], ids=["split", "psplit", "broken-comult", "misplaced-earr", "broken-earr",
        "one-pair-earr", *(f"retyped-{p}-{e}" for p, e in RETYPED),
        *(f"reindexed-{p}-x0-x{i}" for p, i in REINDEXED)])
def test_naturality_sweep_matches_the_reference(make):
    # the sweep compares index gathers and checks the 8 joins as one tuple;
    # every item, its order and both sides must be those of the definition
    assert nat_lines(validate_awfs(make(), 2)) == nat_lines(reference_nat(make(), 2))


@pytest.mark.parametrize("part,end", RETYPED)
def test_a_retyped_structure_map_fails_on_its_ends(family_fails, part, end):
    # the relabelled end shows up twice: as ill-typed items in the squares
    # on the side where two sides must compose, and as failing items on the
    # other side, where two composites with equal index tuples are compared
    rep = validate_awfs(Retyped(C, part, end), 2)
    items = family_fails(rep, NAT[PARTS.index(part)])
    ill = [c for c in items if c.lhs == "<ill-typed>"]
    assert ill and all("not composable" in c.rhs for c in ill)
    assert len(ill) < len(items)


# --- algebras, coalgebras, fillers -----------------------------------------


def test_canonical_filler_frozen_example():
    # mono f with its unique coalgebra structure; surjection g with a chosen
    # section; the filler uses u over the image of f and sigma.v elsewhere
    f = fsarrow("a", "b0 b1".split(), {"a": "b0"})
    s = fsarrow("b0 b1".split(), SPLIT.E(f), {"b0": "L:a", "b1": "R:b1"})
    coalg = LCoalgebraArrow(SPLIT, f, s)
    assert coalg.validate().ok

    g = fsarrow("c0 c1".split(), ("d0",), {"c0": "d0", "c1": "d0"})
    alg = RAlgebraArrow(SPLIT, g, fsarrow(("d0",), "c0 c1".split(), {"d0": "c1"}))
    assert alg.validate().ok

    u = fsarrow("a", "c0 c1".split(), {"a": "c0"})
    v = fsarrow("b0 b1".split(), ("d0",), {"b0": "d0", "b1": "d0"})
    j = canonical_filler(coalg, alg, u, v)
    assert graph(j) == (("b0", "c0"), ("b1", "c1"))


def test_canonical_filler_rejects_noncommuting_square():
    f = fsarrow("a", "b0 b1".split(), {"a": "b0"})
    s = fsarrow("b0 b1".split(), SPLIT.E(f), {"b0": "L:a", "b1": "R:b1"})
    coalg = LCoalgebraArrow(SPLIT, f, s)
    alg = identity_algebra(SPLIT, ("z0", "z1"))
    u = fsarrow("a", "z0 z1".split(), {"a": "z0"})
    v = fsarrow("b0 b1".split(), "z0 z1".split(), {"b0": "z1", "b1": "z0"})
    with pytest.raises(CategoryError, match="does not commute"):
        canonical_filler(coalg, alg, u, v)


def test_cofree_and_free_structures_validate_on_fragment():
    for f in fragment_arrows(C, 2):
        for aw in (SPLIT, PSPLIT):
            assert LCoalgebraArrow(aw, aw.lam(f), aw.comult(f)).validate().ok
            assert free_algebra(aw, f).validate().ok


def test_endpoint_failures_have_both_sides():
    g = fsarrow(("c0",), ("d0",), {"c0": "d0"})
    bad = RAlgebraArrow(SPLIT, g, C.identity(("c0",))).validate()
    assert bad.lines() == ["EQ ralg.witness.endpoints @ {c0}->{d0}[d0] :"
                           " FAIL(lhs={c0} -> {c0}, rhs={d0} -> {c0})"]
    bad = LCoalgebraArrow(SPLIT, g, g).validate()
    assert bad.lines() == ["EQ lcoalg.structure.endpoints @ {c0}->{d0}[d0] :"
                           " FAIL(lhs={c0} -> {d0}, rhs={d0} -> {L:c0,R:d0})"]


def test_identity_algebra_witness_is_unique():
    b = ("y0", "y1")
    assert identity_algebra(SPLIT, b).validate().ok
    valid = [
        w
        for w in C.hom(b, b)
        if RAlgebraArrow(SPLIT, C.identity(b), w).validate().ok
    ]
    assert valid == [C.identity(b)]


def test_composite_algebra_section_frozen():
    # g: {b0,b1} ->> {u}, f: {a0,a1} ->> {b0,b1}; the composite section
    # tracks u back through both chosen sections to a0
    g = fsarrow("b0 b1".split(), "u", {"b0": "u", "b1": "u"})
    ag = RAlgebraArrow(SPLIT, g, fsarrow("u", "b0 b1".split(), {"u": "b0"}))
    f = fsarrow("a0 a1".split(), "b0 b1".split(), {"a0": "b0", "a1": "b1"})
    af = RAlgebraArrow(SPLIT, f, fsarrow("b0 b1".split(), "a0 a1".split(),
                                         {"b0": "a0", "b1": "a1"}))
    comp = r_algebra_compose(ag, af)
    assert comp.validate().ok
    assert comp.arrow == C.compose(g, f)
    assert image(comp.witness, "u") == "a0"


def test_composite_algebra_validates_for_coreader():
    b = ("b0", "b1")
    cc = ("c0",)
    g = fsarrow(b, cc, {"b0": "c0", "b1": "c0"})
    # witness PC -> B may use the tag: send (c0,s) and (c0,t) differently
    wg = fsarrow(CO2.functor.obj(cc), b, {"(c0,s)": "b0", "(c0,t)": "b1"})
    ag = RAlgebraArrow(PSPLIT, g, wg)
    assert ag.validate().ok
    a = ("a0", "a1")
    f = fsarrow(a, b, {"a0": "b0", "a1": "b1"})
    wf = fsarrow(CO2.functor.obj(b), a,
                 {"(b0,s)": "a0", "(b0,t)": "a0", "(b1,s)": "a1", "(b1,t)": "a1"})
    af = RAlgebraArrow(PSPLIT, f, wf)
    assert af.validate().ok
    comp = r_algebra_compose(ag, af)
    assert comp.validate().ok
    # tag survives the comultiplication: (c0,t) picks b1, then a1
    assert image(comp.witness, "(c0,t)") == "a1"
    assert image(comp.witness, "(c0,s)") == "a0"


def test_right_connectedness():
    g = fsarrow("b0 b1".split(), "u", {"b0": "u", "b1": "u"})
    alg = RAlgebraArrow(SPLIT, g, fsarrow("u", "b0 b1".split(), {"u": "b1"}))
    h, k = g, C.identity(C.cod(g))
    ib = identity_algebra(SPLIT, C.cod(g))
    # (h,k) is a commuting square into the identity algebra and a morphism
    # of algebras: the structure maps intertwine
    assert C.compose(C.identity(C.cod(g)), h) == C.compose(k, g)
    lhs = C.compose(ib.p, SPLIT.earr(h, k))
    assert lhs == C.compose(h, alg.p)


def test_cartesian_lift_detection_and_uniqueness():
    # pull back an algebra along a genuine pullback square
    g = fsarrow("c0 c1 c2".split(), "d0 d1".split(),
                {"c0": "d0", "c1": "d0", "c2": "d1"})
    alg = RAlgebraArrow(SPLIT, g, fsarrow("d0 d1".split(), "c0 c1 c2".split(),
                                          {"d0": "c1", "d1": "c2"}))
    assert alg.validate().ok
    v = fsarrow("b", "d0 d1".split(), {"b": "d0"})
    pb = C.pullback(v, g)
    lift = cartesian_lift(alg, pb)
    assert lift.validate().ok
    assert image(lift.witness, "b") == "(b,c1)"
    # uniqueness among witnesses compatible with the square
    pv = identity_comonad(C).functor.arr(v)  # split-epi has P = Id
    compatible = [
        w
        for w in C.hom(("b",), pb.obj)
        if RAlgebraArrow(SPLIT, pb.p1, w).validate().ok
        and C.compose(pb.p2, w) == C.compose(alg.witness, pv)
    ]
    assert compatible == [lift.witness]


def test_cartesian_lift_rejects_non_section_witness():
    # sigma sends d1 into the fibre over d0, so g.sigma != eps and the cone
    # (eps, sigma . Pv) has no mediating map into the pullback
    g = fsarrow("c0 c1".split(), "d0 d1".split(), {"c0": "d0", "c1": "d1"})
    alg = RAlgebraArrow(SPLIT, g, fsarrow("d0 d1".split(), "c0 c1".split(),
                                          {"d0": "c0", "d1": "c0"}))
    assert not alg.validate().ok
    v = fsarrow("b", "d0 d1".split(), {"b": "d1"})
    with pytest.raises(CategoryError, match="cone does not commute"):
        cartesian_lift(alg, C.pullback(v, g))
    with pytest.raises(CategoryError, match="algebra's arrow"):
        cartesian_lift(alg, C.pullback(v, C.identity(("d0", "d1"))))


def test_cartesian_lift_for_coreader():
    cc, d = ("c0", "c1"), ("d0",)
    g = fsarrow(cc, d, {"c0": "d0", "c1": "d0"})
    wg = fsarrow(CO2.functor.obj(d), cc, {"(d0,s)": "c0", "(d0,t)": "c1"})
    alg = RAlgebraArrow(PSPLIT, g, wg)
    assert alg.validate().ok
    v = fsarrow("b", d, {"b": "d0"})
    pb = C.pullback(v, g)
    lift = cartesian_lift(alg, pb)
    assert lift.validate().ok
    assert image(lift.witness, "(b,s)") == "(b,c0)"
    assert image(lift.witness, "(b,t)") == "(b,c1)"


# --- cofibrant replacement --------------------------------------------------


def test_cofibrant_replacement_is_a_comonad():
    for aw in (SPLIT, PSPLIT):
        q = cofibrant_replacement(aw)
        rep = validate_comonad(C, q, [(), ("x0",), ("x0", "x1")])
        assert rep.ok, rep.failures()[:4]


def test_replacement_comparison_is_comonad_iso():
    for aw in (SPLIT, PSPLIT):
        q = cofibrant_replacement(aw)
        tau = {}
        def t(b):
            return replacement_comparison(aw, b)[0]
        def ti(b):
            return replacement_comparison(aw, b)[1]
        rep = validate_comonad_iso(C, q, aw.comonad, t, ti,
                                   [(), ("x0",), ("x0", "x1")])
        assert rep.ok, rep.failures()[:4]


def test_replacement_labels_are_tagged_carrier():
    q = cofibrant_replacement(PSPLIT)
    assert q.functor.obj(("b",)) == ("R:(b,s)", "R:(b,t)")


# --- sketches ----------------------------------------------------------------


def exception_setting():
    t = exception_monad(C, ("err",))
    carrier = ("p", "q")
    act = fsarrow(t.functor.obj(carrier), carrier, {"L:p": "p", "L:q": "q", "R:err": "p"})
    return t, TAlgebra(t, carrier, act)


def test_sketch_canonical_lift_frozen():
    t, alg = exception_setting()
    c, d = ("c0",), ("e0", "e1")
    j = fsarrow(c, d, {"c0": "e0"})
    k = fsarrow(d, t.functor.obj(c), {"e0": "L:c0", "e1": "R:err"})
    mono = TSplitMono(t, j, k)
    assert mono.validate(C).ok
    h = fsarrow(c, alg.obj, {"c0": "q"})
    hbar = sketch_canonical_lift(C, mono, alg, h)
    # e0 follows h; e1 falls into the exception and lands on the basepoint
    assert graph(hbar) == (("e0", "q"), ("e1", "p"))


def test_sketch_lift_rejects_fake_split_mono():
    t, alg = exception_setting()
    c, d = ("c0",), ("e0",)
    j = fsarrow(c, d, {"c0": "e0"})
    k = fsarrow(d, t.functor.obj(c), {"e0": "R:err"})  # k.j != unit
    h = fsarrow(c, alg.obj, {"c0": "q"})
    with pytest.raises(CategoryError, match="split mono"):
        sketch_canonical_lift(C, TSplitMono(t, j, k), alg, h)


def test_sketch_model_predicates_coincide_exhaustively():
    t, alg = exception_setting()
    c, d = ("c0",), ("e0", "e1")
    x = ("x0", "x1")
    tc = t.functor.obj(c)
    agree = disagree = 0
    for jidx in range(2):
        j = FinSetArrow(c, d, (jidx,))
        for k in C.hom(d, tc):
            if C.compose(k, j) != t.unit(c):
                continue
            mono = TSplitMono(t, j, k)
            for phi in C.hom(d, x):
                sk = Sketch(x, (SketchTriangle(mono, phi),))
                for f in C.hom(x, alg.obj):
                    a = sketch_is_model_square(C, sk, alg, f)
                    b = sketch_is_model_lift(C, sk, alg, f)
                    assert a == b
                    agree += a
                    disagree += (not a)
    # the predicate must be non-trivial on this family
    assert agree > 0 and disagree > 0


# --- filler formula as a property -------------------------------------------


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_filler_splits_by_image(data):
    nb = data.draw(st.integers(1, 3))
    na = data.draw(st.integers(1, nb))
    b = tuple(f"b{i}" for i in range(nb))
    a = tuple(f"a{i}" for i in range(na))
    fim = data.draw(st.permutations(range(nb)))[:na]
    f = FinSetArrow(a, b, tuple(fim))
    s_imgs = {}
    for i, x in enumerate(a):
        s_imgs[b[f.idx[i]]] = "L:" + x
    for y in b:
        s_imgs.setdefault(y, "R:" + y)
    coalg = LCoalgebraArrow(SPLIT, f, fsarrow(b, SPLIT.E(f), s_imgs))
    assert coalg.validate().ok

    nc = data.draw(st.integers(1, 3))
    cset = tuple(f"c{i}" for i in range(nc))
    g = FinSetArrow(cset, ("d0",), (0,) * nc)
    sigma = FinSetArrow(("d0",), cset, (data.draw(st.integers(0, nc - 1)),))
    alg = RAlgebraArrow(SPLIT, g, sigma)

    u = FinSetArrow(a, cset, tuple(data.draw(st.integers(0, nc - 1)) for _ in a))
    v = FinSetArrow(b, ("d0",), (0,) * nb)
    j = canonical_filler(coalg, alg, u, v)
    img = {f.idx[i]: u.cod[u.idx[i]] for i in range(na)}
    for pos, y in enumerate(b):
        if pos in img:
            assert image(j, y) == img[pos]
        else:
            assert image(j, y) == image(sigma, image(v, y))


def test_squares_between_matches_bruteforce():
    # the exact list, so a square yielded twice or out of order fails: the
    # order of the squares fixes the order of a family's failing items.  By
    # the definition, k-major in hom's lex order, then h in hom's lex order;
    # every pair of the size <= 2 fragment
    fs = fragment_arrows(C, 2)
    for f, g in itertools.product(fs, repeat=2):
        slow = [(h.idx, k.idx) for k in C.hom(f.cod, g.cod) for h in C.hom(f.dom, g.dom)
                if C.compose(g, h) == C.compose(k, f)]
        assert list(squares_between(C, f, g)) == slow, (f, g)
    assert len(fs) ** 2 == 121
    # size <= 3: the closed form sum_(f,g) prod_b sum_d |g^-1 d| ** |f^-1 b|,
    # and the k that send im f into im g, each with an h
    fs = fragment_arrows(C, 3)
    squares = [(f, g, k) for f in fs for g in fs for _, k in squares_between(C, f, g)]
    assert (len(squares), len(set(squares))) == (74112, 28228)
