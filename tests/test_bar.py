import random
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakmaps.bar import (
    BarCalculus,
    BarError,
    DgAlgebra,
    DgModule,
    TruncatedCodescent,
    WeakHomElement,
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
    validate_bar,
    weak_add,
    weak_compose,
    weak_differential,
    weak_forget,
    weak_from_strict,
    weak_identity,
    weak_smul,
    weak_to_strict,
    weak_zero,
)
from weakmaps.dg import (
    ChainComplex,
    GradedMap,
    HomologicalLali,
    boundary_gmap,
    gmap_add,
    gmap_compose,
    gmap_smul,
    homology_ranks,
    id_gmap,
    is_chain_map,
    lunit_iso,
    tensor_complex,
    unit_complex,
    zero_gmap,
)
from weakmaps.ratmat import mat
from weakmaps.report import PASS
from weakmaps.schemas import load_algebra, load_lali
from generators import (CONE, EXTERIOR_DOWN, POLY3, SIDE_BROKEN_LALI,
                        break_square_zero, random_complex)

RAT = builtin_algebra("rationals")
DUAL = builtin_algebra("dual_numbers")
EXT = builtin_algebra("exterior")

DG = builtin_module(DUAL, "ground")
DF = builtin_module(DUAL, "free")
EG = builtin_module(EXT, "ground")
EF = builtin_module(EXT, "free")
RG = builtin_module(RAT, "ground")
RF = builtin_module(RAT, "free")

_CODS = {}


def cod(mod, L):
    key = (id(mod), L)
    if key not in _CODS:
        _CODS[key] = TruncatedCodescent(mod.calculus(L))
    return _CODS[key]


# ---------------------------------------------------------------------------
# Algebras and modules


def test_builtin_algebra_laws():
    for alg in (RAT, DUAL, EXT):
        rep = alg.validate()
        assert rep.ok, [c.line() for c in rep.failures()]


def test_unit_complement_dims():
    assert RAT.abar.dims == {}
    assert DUAL.abar.dims == {0: 1}
    assert EXT.abar.dims == {1: 1}


def test_split_recovers_algebra():
    for alg in (DUAL, EXT):
        back = gmap_add(gmap_compose(alg.incl_bar, alg.proj_bar),
                        gmap_compose(alg.unit, alg.pivot))
        assert back == id_gmap(alg.cx)


def test_algebra_rejects_bad_shapes():
    cx = DUAL.cx
    with pytest.raises(BarError):
        DgAlgebra(cx, DUAL.unit, id_gmap(cx))  # mult not on A (x) A
    with pytest.raises(BarError):
        DgAlgebra(cx, id_gmap(cx), DUAL.mult)  # unit not out of the ground
    with pytest.raises(BarError):
        # no pivot: the unit hits nothing in degree zero
        DgAlgebra(cx, GradedMap(cx, unit_complex(), 0, {}), DUAL.mult)
    with pytest.raises(BarError):
        builtin_algebra("group_ring")


def test_algebra_validation_flags_broken_mult():
    bad = GradedMap(DUAL.mult.src, DUAL.cx, 0, {0: mat([[1, 0, 0, 0], [0, 1, 0, 0]])})
    rep = DgAlgebra(DUAL.cx, DUAL.unit, bad).validate()
    assert not rep.ok
    assert "alg.unit.right" in {c.name for c in rep.failures()}


def test_builtin_module_laws():
    for mod in (RG, RF, DG, DF, EG, EF):
        rep = mod.validate()
        assert rep.ok, [c.line() for c in rep.failures()]
    with pytest.raises(BarError):
        builtin_module(DUAL, "cofree")


def test_module_action_must_be_degree_zero():
    with pytest.raises(BarError):
        DgModule(RAT, RG.cx, GradedMap(RG.act.src, RG.cx, 1, {}))


# ---------------------------------------------------------------------------
# Bar powers and the simplicial identities


def test_power_dims_dual_ground():
    calc = DG.calculus(3)
    assert [calc.pow[n].dims for n in range(5)] == [
        {0: 1}, {0: 2}, {0: 4}, {0: 8}, {0: 16}]
    assert [calc.barpow[n].dims for n in range(4)] == [{0: 1}] * 4


def test_power_dims_exterior_ground():
    calc = EG.calculus(2)
    # Abar is one cell in degree 1, so the n-th reduced power sits in
    # degree n and the full power spreads binomially
    assert [calc.barpow[n].dims for n in range(3)] == [
        {0: 1}, {1: 1}, {2: 1}]
    assert calc.pow[2].dims == {0: 1, 1: 2, 2: 1}


def test_truncation_level_must_be_positive():
    with pytest.raises(BarError):
        BarCalculus(DG, 0)


def test_simplicial_identities():
    for mod, L in ((DG, 3), (EG, 3), (DF, 2)):
        rep = validate_bar(mod.calculus(L))
        assert rep.ok, [c.line() for c in rep.failures()]
        assert rep.counts() == {"PASS": 6, "FAIL": 0,
                                 "TRUNCATION-EXEMPT": 0}


def test_augmentation_face_identity_instance():
    calc = EG.calculus(2)
    d0 = calc.face(1, 0)
    assert gmap_compose(d0, calc.face(2, 0)) == gmap_compose(
        d0, calc.face(2, 1))


def test_degeneracies_are_split():
    calc = DG.calculus(3)
    for n in range(3):
        for j in range(-1, n):
            s = calc.degen(n, j)
            d = calc.face(n + 1, j + 1)
            assert gmap_compose(d, s) == id_gmap(calc.pow[n])


# ---------------------------------------------------------------------------
# The truncated resolution


def test_codescent_dual_ground_shape():
    t = cod(DG, 5)
    assert t.total.dims == {k: 2 for k in range(6)}
    assert [lv.dims for lv in t.levels] == [{0: 2}] * 6
    assert homology_ranks(t.total, range(5)) == {
        0: 1, 1: 0, 2: 0, 3: 0, 4: 0}


def test_codescent_dual_ground_laws():
    rep = cod(DG, 5).validate()
    assert rep.ok, [c.line() for c in rep.failures()]
    assert rep.counts() == {"PASS": 21, "FAIL": 0,
                            "TRUNCATION-EXEMPT": 0}


def test_codescent_boundary_square_is_checked(family_fails):
    t = TruncatedCodescent(DG.calculus(3))  # not the shared cached one
    k = break_square_zero(t.total)
    rep = t.validate()
    lines = rep.lines()
    assert any(ln.startswith("EQ cod.boundary.sq @ dual_numbers/ground : FAIL(")
               for ln in lines), lines
    items = family_fails(rep, "cod.boundary.sq", subject="dual_numbers/ground")
    assert [c.subject for c in items] == [f"dual_numbers/ground k={k}"]
    assert lines[-1].startswith("EQ cod.boundary.sq @ dual_numbers/ground : ")


def test_codescent_exterior_ground():
    t = cod(EG, 4)
    assert t.total.dims == {k: 1 for k in range(10)}
    assert homology_ranks(t.total, range(4)) == {0: 1, 1: 0, 2: 0, 3: 0}
    rep = t.validate()
    assert rep.ok, [c.line() for c in rep.failures()]


def test_codescent_exterior_free():
    # M = A itself has zero differential, so H_1 survives
    t = cod(EF, 3)
    assert t.total.dims == {0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2,
                            7: 2, 8: 1}
    assert homology_ranks(t.total, range(3)) == {0: 1, 1: 1, 2: 0}
    rep = t.validate()
    assert rep.ok, [c.line() for c in rep.failures()]


def test_codescent_dual_free_levels():
    t = cod(DF, 3)
    assert [lv.dims for lv in t.levels] == [{0: 4}] * 4
    assert t.validate().ok


def test_codescent_over_rationals_collapses():
    t = cod(RG, 3)
    assert t.total.dims == {0: 1}
    assert t.xi.is_zero()
    assert t.validate().ok


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_rational_resolution_preserves_any_complex(seed):
    rng = random.Random(seed)
    x = random_complex(rng)
    mod = DgModule(RAT, x, lunit_iso(x), name="X")
    t = TruncatedCodescent(mod.calculus(2))
    assert t.total.dims == x.dims
    assert (homology_ranks(t.total, t.total.degrees())
            == homology_ranks(x, x.degrees()))


def tower_splits(t):
    """(incl, proj): the level n of t split off the tower power
    X_n = T^{n+1}M as T incl_w[n] and T proj_w[n]."""
    calc = t.calc
    return ([calc.T(w) for w in calc.incl_w[:t.L + 1]],
            [calc.T(w) for w in calc.proj_w[:t.L + 1]])


def tower_glue(t, ms):
    """The map out of |X| acting on level n by ms[n] . T incl_w[n], for
    maps ms[n] out of the tower power X_n."""
    calc = t.calc
    return reduce(gmap_add, (
        gmap_compose(m, gmap_compose(calc.T(calc.incl_w[n]), t.read_n[n]))
        for n, m in enumerate(ms)))


def tower_codescent(t):
    """The codescent structure derived from the tower T^{n+1}M, as the
    construction once built it: (level boundaries, p, q, xi, abar), with
    the boundaries through the face sums, p, q and xi through tower_glue,
    iota and the extra degeneracy s_{-1}, and abar through the face d_0."""
    calc, L = t.calc, t.L
    incl, proj = tower_splits(t)
    drop = [gmap_compose(proj[n - 1],
                         gmap_compose(calc.facesum(n + 1), incl[n]))
            for n in range(1, L + 1)]
    p = tower_glue(t, [calc.mod.act])
    q = gmap_compose(t.iota(0), calc.degen(0, -1))
    xi = tower_glue(t, [gmap_compose(t.iota(n + 1), calc.degen(n + 1, -1))
                        for n in range(L)])
    abar = reduce(gmap_add, (
        gmap_compose(gmap_compose(t.tag_n[n], proj[n]), gmap_compose(
            calc.face(n + 2, 0), calc.T(gmap_compose(incl[n], t.read_n[n]))))
        for n in range(L + 1)))
    return drop, p, q, xi, abar


def assert_codescent_matches_tower(mod, L):
    calc = BarCalculus(mod, L)
    t = TruncatedCodescent(calc)
    drop, p, q, xi, abar = tower_codescent(t)
    incl, proj = tower_splits(t)
    a = mod.alg
    dims = {}
    for n, lv in enumerate(t.levels):
        assert lv == tensor_complex(a.cx, calc.barpow[n])
        induced = gmap_compose(proj[n], gmap_compose(
            boundary_gmap(calc.pow[n + 1]), incl[n]))
        assert boundary_gmap(lv) == induced, n
        for m in lv.degrees():
            dims[m + n] = dims.get(m + n, 0) + lv.dim(m)
    assert t.total.dims == dims
    # the tags place the levels side by side, so the two strips of each
    # level pin the total differential down
    d = boundary_gmap(t.total)
    for n, lv in enumerate(t.levels):
        want = gmap_compose(t.tag_n[n], gmap_smul((-1) ** n, boundary_gmap(lv)))
        if n:
            want = gmap_add(want, gmap_compose(t.tag_n[n - 1], drop[n - 1]))
        assert gmap_compose(d, t.tag_n[n]) == want, n
    assert (t.p, t.q, t.xi, t.abar) == (p, q, xi, abar)


FILE_ALGEBRAS = {"cone": CONE, "exterior_down": EXTERIOR_DOWN, "poly3": POLY3}


@pytest.mark.parametrize("kind", ["rationals", "dual_numbers", "exterior"])
@pytest.mark.parametrize("module", ["ground", "free"])
@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_codescent_equals_the_tower_on_builtins(kind, module, L):
    assert_codescent_matches_tower(
        builtin_module(builtin_algebra(kind), module), L)


@pytest.mark.parametrize("name", FILE_ALGEBRAS)
@pytest.mark.parametrize("module", ["ground", "free"])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_codescent_equals_the_tower_on_files(name, module, L):
    alg = load_algebra(FILE_ALGEBRAS[name])
    assert_codescent_matches_tower(builtin_module(alg, module), L)


def test_poly3_has_live_inner_faces():
    # d_1 on A (x) Abar (x) Abar (x) M multiplies two Abar slots, and
    # xbar.xbar = x^2bar in Q[x]/(x^3); on the built-ins it is zero
    for alg, live in ((load_algebra(POLY3), True), (DUAL, False)):
        calc = builtin_module(alg, "ground").calculus(2)
        inner = gmap_compose(calc.proj_w[1], gmap_compose(
            calc.face(2, 0), calc.incl_w[2]))
        assert inner.is_zero() is not live


class CountingCalculus(BarCalculus):
    """A bar calculus counting the tower maps it is asked for, and the
    reads of the tower powers and their splittings once it is built."""

    TOWER = ("pow", "incl_w", "proj_w")

    def __init__(self, mod, L):
        super().__init__(mod, L)
        self.calls = Counter()

    def __getattribute__(self, name):
        if name in CountingCalculus.TOWER and "calls" in self.__dict__:
            self.calls[name] += 1
        return super().__getattribute__(name)

    def face(self, n, j):
        self.calls["face"] += 1
        return super().face(n, j)

    def facesum(self, n):
        self.calls["facesum"] += 1
        return super().facesum(n)

    def degen(self, n, j):
        self.calls["degen"] += 1
        return super().degen(n, j)


@pytest.mark.parametrize("mod", [DF, EG], ids=["dual-free", "exterior-ground"])
def test_codescent_builds_no_tower_map(mod):
    # a work count: the levels, p, q, xi and abar act on the reduced
    # levels, so only validate's comparisons reach the tower
    calc = CountingCalculus(mod, 4)
    t = TruncatedCodescent(calc)
    assert t.abar is t.abar
    assert calc.calls == Counter()
    assert t.validate().ok
    assert calc.calls["face"] and calc.calls["facesum"] and calc.calls["degen"]


def test_strict_maps_out_of_the_resolution_build_no_tower_map():
    # a work count: the comparison h and the strict/weak bridge act on
    # the levels, so they ask the calculus for no face or degeneracy
    calc = CountingCalculus(DF, 4)
    t = TruncatedCodescent(calc)
    modB, g, f0, eps0 = thickened_lali(DF, twist=nonequivariant_twist(DUAL))
    h, rep = free_ulali_factor(t, modB, g, f0, eps0)
    assert rep.ok, [c.line() for c in rep.failures()]
    assert weak_to_strict(t, strict_to_weak(t, h, modB)) == h
    assert calc.calls == Counter()


def test_coherent_maps_build_no_tower_map():
    # a work count: composition, the differential and the lifted
    # components act on the reduced components, so they ask the
    # calculus for no face or degeneracy and read no tower power
    L = 3
    mod = builtin_module(load_algebra(EXTERIOR_DOWN), "free")
    calc = mod._calcs[L] = CountingCalculus(mod, L)
    rng = random.Random(0)
    f, g = (random_weak(rng, mod, mod, d, L) for d in (0, 1))
    weak_differential(weak_compose(g, f))
    modB, g, f0, eps0 = thickened_lali(
        mod, twist=nonequivariant_twist(mod.alg))
    calcB = modB._calcs[L] = CountingCalculus(modB, L)
    lift, eps, rep = lift_ulali(modB, mod, g, f0, eps0, L)
    assert rep.ok, [c.line() for c in rep.failures()]
    assert not lift.comps[1].is_zero()
    assert calc.calls == Counter() and calcB.calls == Counter()


def test_bar_lali_dual_ground():
    lal, rep = bar_lali(cod(DG, 5))
    assert rep.ok, [c.line() for c in rep.failures()]
    assert rep.counts() == {"PASS": 12, "FAIL": 0,
                            "TRUNCATION-EXEMPT": 1}
    assert lal.g == cod(DG, 5).p


def test_normalized_dims_two_routes():
    for mod, L in ((DG, 5), (EF, 3)):
        table, rep = normalized_level_dims(cod(mod, L))
        assert rep.ok, [c.line() for c in rep.failures()]
    table, _ = normalized_level_dims(cod(DG, 5))
    assert table == [{0: 2}] * 6


def test_weak_identity_extends_to_p():
    t = cod(DG, 3)
    assert weak_to_strict(t, weak_identity(DG, 3)) == t.p
    assert strict_to_weak(t, t.p, DG) == weak_identity(DG, 3)


def test_bar_lali_exterior_free():
    _, rep = bar_lali(cod(EF, 3))
    assert rep.ok
    assert rep.counts()["TRUNCATION-EXEMPT"] == 1


def test_coherent_unit_recursion():
    # the canonical section q feeds the contraction back into itself:
    # the n-th stage of xi . abar . T(-) lands on iota_n . s_{-1}
    for mod, L in ((DG, 3), (EF, 2)):
        t = cod(mod, L)
        calc = t.calc
        stage = t.q
        for n in range(1, L + 1):
            stage = gmap_compose(t.xi, gmap_compose(t.abar, calc.T(stage)))
            assert stage == gmap_compose(t.iota(n), calc.degen(n, -1))


# ---------------------------------------------------------------------------
# Coherent maps


def test_weak_component_shapes_checked():
    z = weak_zero(DG, DF, 0, 2)
    with pytest.raises(BarError):
        WeakHomElement(DG, DF, 0, 2, z.comps[:2])  # missing a level
    with pytest.raises(BarError):
        # level-1 component in the wrong degree
        WeakHomElement(DG, DF, 0, 2, (z.comps[0],
                                      zero_gmap(z.comps[1].src, DF.cx, 0),
                                      z.comps[2]))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(-1, 2))
def test_weak_identity_laws(seed, deg):
    rng = random.Random(seed)
    f = random_weak(rng, DG, DF, deg, 3)
    assert weak_compose(weak_identity(DF, 3), f) == f
    assert weak_compose(f, weak_identity(DG, 3)) == f


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_weak_composition_associative(seed):
    rng = random.Random(seed)
    f = random_weak(rng, DG, DF, rng.randrange(-1, 2), 2)
    g = random_weak(rng, DF, DG, rng.randrange(-1, 2), 2)
    h = random_weak(rng, DG, DG, rng.randrange(-1, 2), 2)
    assert weak_compose(h, weak_compose(g, f)) == weak_compose(
        weak_compose(h, g), f)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_weak_composition_bilinear(seed):
    rng = random.Random(seed)
    f = random_weak(rng, DG, DF, 1, 2)
    g1 = random_weak(rng, DF, DG, 0, 2)
    g2 = random_weak(rng, DF, DG, 0, 2)
    assert weak_compose(weak_add(g1, g2), f) == weak_add(
        weak_compose(g1, f), weak_compose(g2, f))
    assert weak_compose(weak_smul(3, g1), f) == weak_smul(
        3, weak_compose(g1, f))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6), st.integers(-1, 2))
def test_weak_differential_squares_to_zero(seed, deg):
    rng = random.Random(seed)
    for src, dst in ((DG, DF), (EF, EG)):
        f = random_weak(rng, src, dst, deg, 2)
        df = weak_differential(f)
        assert df.deg == deg - 1
        assert weak_differential(df).is_zero()


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_weak_leibniz(seed):
    rng = random.Random(seed)
    for src, mid, dst in ((DG, DF, DG), (EG, EF, EF)):
        f = random_weak(rng, src, mid, rng.randrange(-1, 2), 2)
        g = random_weak(rng, mid, dst, rng.randrange(-1, 2), 2)
        lhs = weak_differential(weak_compose(g, f))
        rhs = weak_add(weak_compose(weak_differential(g), f),
                       weak_smul((-1) ** (g.deg % 2),
                                 weak_compose(g, weak_differential(f))))
        assert lhs == rhs


def test_strict_inclusion_is_functorial():
    aug = DUAL.pivot
    rx = GradedMap(DUAL.cx, DUAL.cx, 0, {0: mat([[0, 0], [1, 0]])})
    # right multiplication commutes with the left action, so both are
    # strict; their images compose on the nose
    ja = weak_from_strict(aug, DF, DG, 3)
    jr = weak_from_strict(rx, DF, DF, 3)
    assert weak_compose(ja, jr) == weak_from_strict(
        gmap_compose(aug, rx), DF, DG, 3)
    assert weak_differential(ja).is_zero()
    assert weak_forget(ja) == aug


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_forget_respects_composition(seed):
    rng = random.Random(seed)
    f = random_weak(rng, DG, DF, 1, 2)
    g = random_weak(rng, DF, DG, -1, 2)
    assert weak_forget(weak_compose(g, f)) == gmap_compose(
        weak_forget(g), weak_forget(f))


# ---------------------------------------------------------------------------
# Strict maps versus coherent maps out of the resolution


def tower_strict_to_weak(t, u, dst):
    """strict_to_weak through the tower: u . iota_n . s_{-1} on X_n,
    cut down along incl_w[n] once it is seen to vanish on the unit
    insertions."""
    calc = t.calc
    comps = []
    for n in range(t.L + 1):
        full = gmap_compose(u, gmap_compose(t.iota(n), calc.degen(n, -1)))
        comps.append(gmap_compose(full, calc.incl_w[n]))
        assert gmap_compose(comps[-1], calc.proj_w[n]) == full
    return WeakHomElement(calc.mod, dst, u.deg, t.L, comps)


def tower_weak_to_strict(t, f):
    """weak_to_strict through the tower: act . T(f_n . proj_w[n]) on X_n,
    each component inflated to T^n M here."""
    calc = t.calc
    return tower_glue(t, [
        gmap_compose(f.dst.act, calc.T(gmap_compose(c, calc.proj_w[n])))
        for n, c in enumerate(f.comps)])


def test_weak_to_strict_rejects_bad_input():
    t = cod(DG, 2)
    with pytest.raises(BarError):
        weak_to_strict(t, weak_zero(DG, DF, 1, 2))
    with pytest.raises(BarError):
        weak_to_strict(t, weak_zero(DF, DG, 0, 2))
    rng = random.Random(5)
    open_map = random_weak(rng, DG, DF, 0, 2)
    assert not weak_differential(open_map).is_zero()
    with pytest.raises(BarError):
        weak_to_strict(t, open_map)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_strict_weak_round_trips(seed):
    rng = random.Random(seed)
    t = cod(DG, 3)
    g = weak_differential(random_weak(rng, DG, DF, 1, 3))
    u = weak_to_strict(t, g)
    assert is_chain_map(u)
    assert strict_to_weak(t, u, DF) == g
    assert weak_to_strict(t, strict_to_weak(t, u, DF)) == u
    assert u == tower_weak_to_strict(t, g)
    assert strict_to_weak(t, u, DF) == tower_strict_to_weak(t, u, DF)


def test_identity_round_trip():
    t = cod(DG, 3)
    modX = t.as_module()
    assert modX.validate().ok
    back = weak_to_strict(t, strict_to_weak(t, id_gmap(t.total), modX))
    assert back == id_gmap(t.total)
    for u, dst in ((id_gmap(t.total), modX), (t.p, DG)):
        w = strict_to_weak(t, u, dst)
        assert w == tower_strict_to_weak(t, u, dst)
        assert weak_to_strict(t, w) == tower_weak_to_strict(t, w)


# ---------------------------------------------------------------------------
# Lifting contractions


def trivial_lali(mod):
    one = id_gmap(mod.cx)
    return mod, one, one, zero_gmap(mod.cx, mod.cx, 1)


def test_lift_trivial_lali():
    modB, g, f0, eps0 = trivial_lali(DG)
    f, eps, rep = lift_ulali(modB, DG, g, f0, eps0, 3)
    assert rep.ok, [c.line() for c in rep.failures()]
    assert f == weak_identity(DG, 3)
    assert eps.is_zero()


def test_lift_thickened_lali():
    for mod in (DF, EF, DG):
        modB, g, f0, eps0 = thickened_lali(mod)
        f, eps, rep = lift_ulali(modB, mod, g, f0, eps0, 3)
        assert rep.ok, [c.line() for c in rep.failures()]
        assert rep.counts() == {"PASS": 16, "FAIL": 0,
                                "TRUNCATION-EXEMPT": 0}
        assert weak_forget(f) == f0
        assert weak_forget(eps) == eps0


def test_lift_twisted_lali_fills_higher_levels():
    for mod in (DF, EF):
        modB, g, f0, eps0 = thickened_lali(mod, twist=nonequivariant_twist(
            mod.alg))
        assert HomologicalLali(g, f0, eps0).validate().ok
        f, eps, rep = lift_ulali(modB, mod, g, f0, eps0, 3)
        assert rep.ok, [c.line() for c in rep.failures()]
        assert not f.comps[1].is_zero()


def test_factor_through_trivial_lali():
    t = cod(DG, 3)
    modB, g, f0, eps0 = trivial_lali(DG)
    h, rep = free_ulali_factor(t, modB, g, f0, eps0)
    assert rep.ok, [c.line() for c in rep.failures()]
    assert h == t.p


def test_factor_thickened():
    for mod, L in ((DF, 3), (EF, 3), (DG, 4)):
        t = cod(mod, L)
        modB, g, f0, eps0 = thickened_lali(mod)
        h, rep = free_ulali_factor(t, modB, g, f0, eps0)
        assert rep.ok, [c.line() for c in rep.failures()]
        assert rep.counts()["TRUNCATION-EXEMPT"] == 1
        assert gmap_compose(g, h) == t.p


def test_factor_twisted():
    for mod in (DF, EF):
        t = cod(mod, 3)
        modB, g, f0, eps0 = thickened_lali(mod, twist=nonequivariant_twist(
            mod.alg))
        h, rep = free_ulali_factor(t, modB, g, f0, eps0)
        assert rep.ok, [c.line() for c in rep.failures()]
        assert not h.is_zero()


def tower_factor(t, modB, f0, eps0):
    """free_ulali_factor on the tower, as first built: stage maps
    hs[n] = act . T(eps0 . hs[n-1]) out of X_n = T^{n+1}M, h glued
    through T incl_w[n], the degeneracy items hs[n] . s_j = 0 for
    0 <= j < n, and the stages of h read back through iota_n.  Returns
    (h, reduced, unique) with the verdicts of the two families."""
    calc, L = t.calc, t.L
    hs = [gmap_compose(modB.act, calc.T(f0))]
    for _ in range(L):
        hs.append(gmap_compose(modB.act, calc.T(gmap_compose(eps0, hs[-1]))))
    h = tower_glue(t, hs)
    reduced = all(gmap_compose(hs[n], calc.degen(n, j)).is_zero()
                  for n in range(1, L + 1) for j in range(n))
    stages = [gmap_compose(h, t.iota(n)) for n in range(L + 1)]
    forced = [gmap_compose(modB.act, calc.T(gmap_compose(eps0, m)))
              for m in stages[:-1]]
    unique = ([gmap_compose(stages[0], calc.degen(0, -1))] + stages[1:]
              == [f0] + forced)
    return h, reduced, unique


def verdict(rep, name):
    """True iff the last line named `name` (a family's aggregate) PASSed."""
    return [c.status for c in rep.checks if c.name == name][-1] == PASS


def lalis_onto(mod):
    """The trivial lali, the thickened one, and for a free module the
    thickened one with the non-equivariant twist."""
    out = [trivial_lali(mod), thickened_lali(mod)]
    if mod.cx == mod.alg.cx:
        out.append(thickened_lali(mod, twist=nonequivariant_twist(mod.alg)))
    return out


def assert_factor_matches_tower(mod, L):
    for modB, g, f0, eps0 in lalis_onto(mod):
        t = TruncatedCodescent(BarCalculus(mod, L))
        h, rep = free_ulali_factor(t, modB, g, f0, eps0)
        th, reduced, unique = tower_factor(t, modB, f0, eps0)
        assert h == th
        assert verdict(rep, "factor.reduced") is reduced
        assert verdict(rep, "factor.unique") is unique


@pytest.mark.parametrize("kind", ["rationals", "dual_numbers", "exterior"])
@pytest.mark.parametrize("module", ["ground", "free"])
@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_factor_equals_the_tower_on_builtins(kind, module, L):
    assert_factor_matches_tower(
        builtin_module(builtin_algebra(kind), module), L)


@pytest.mark.parametrize("name", ["cone", "poly3"])
@pytest.mark.parametrize("module", ["ground", "free"])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_factor_equals_the_tower_on_files(name, module, L):
    alg = load_algebra(FILE_ALGEBRAS[name])
    assert_factor_matches_tower(builtin_module(alg, module), L)


def test_side_broken_lali_fails_both_reduced_families():
    # eps0 does not vanish after f0, so the level item n = 1 and the
    # tower item n = 1, j = 0 both see eps0 . f0
    modB, g, f0, eps0 = load_lali(SIDE_BROKEN_LALI, DUAL, DF)
    t = TruncatedCodescent(BarCalculus(DF, 3))
    h, rep = free_ulali_factor(t, modB, g, f0, eps0)
    th, reduced, _ = tower_factor(t, modB, f0, eps0)
    assert h == th
    assert not verdict(rep, "factor.reduced") and not reduced


def test_corrupted_face_fails_face_face(family_fails):
    calc = BarCalculus(DG, 2)  # a private calculus, not the module's cache
    calc._face[(2, 0)] = gmap_add(calc.face(2, 0), calc.face(2, 0))
    rep = validate_bar(calc)
    items = family_fails(rep, "bar.face_face")
    assert [c.subject for c in items] == ["dual_numbers/ground n=2 i=0 j=1",
                                          "dual_numbers/ground n=3 i=0 j=2"]
    assert ("EQ bar.face_face @ dual_numbers/ground : FAIL(lhs=2 failing, rhs=0)"
            in rep.lines())
    family_fails(rep, "bar.face_degen")
    family_fails(rep, "bar.shift")


def test_corrupted_degeneracy_and_degree_fail_their_families(family_fails):
    calc = BarCalculus(EG, 2)
    calc._degen[(1, 0)] = gmap_add(calc.degen(1, 0), calc.degen(1, 0))
    f = calc.face(1, 0)
    calc._face[(1, 0)] = zero_gmap(f.src, f.dst, 1)  # the wrong degree
    rep = validate_bar(calc)
    items = family_fails(rep, "bar.degen_degen")
    assert [c.subject for c in items] == ["exterior/ground n=0 i=-1 j=-1",
                                          "exterior/ground n=1 i=-1 j=0"]
    items = family_fails(rep, "bar.chain")
    assert [c.line() for c in items] == [
        "EQ bar.chain @ exterior/ground face n=1 j=0"
        " : FAIL(lhs=deg=1 D=GradedMap(deg=0, {}), rhs=deg=0 D=0)"]


def test_corrupted_codescent_fails_its_families(family_fails):
    # a degeneracy replaced by the extra one, s_{-1}, which iota does not kill
    calc = BarCalculus(DF, 2)
    t = TruncatedCodescent(calc)
    calc._degen[(1, 0)] = calc.degen(1, -1)
    items = family_fails(t.validate(), "cod.iota.degen")
    assert [c.subject for c in items] == ["dual_numbers/free n=1 j=0"]
    # a level complex whose boundary is not the one its stage induces
    t = TruncatedCodescent(BarCalculus(EG, 2))
    t.levels[0] = ChainComplex({0: 1, 1: 1}, {1: mat([[1]])})
    items = family_fails(t.validate(), "cod.reduced.boundary")
    assert [c.subject for c in items] == ["exterior/ground n=0"]

