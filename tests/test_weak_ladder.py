"""The reduced calculus of coherent maps against the tower T^n M.

A coherent map computes on its reduced components alone: `rung(n, p)`
keeps T-bar^p comps[n], each rung built once as T-bar of the rung below,
composition sums g_p . T-bar^p f_q, and the differential and
`lift_ulali` read the reduced face sums ebar_n.  The reference here
inflates every component to the tower, comps[n] . proj_w[n], rebuilds
every T-power with `Tpow`, and computes on T^n M with the faces of the
tower.  It asserts that each result vanishes on the unit insertions,
then cuts it down along incl_w[n]; every rung, composite, differential
and lifted component must equal that.
"""

import random

import pytest

from weakmaps.bar import (
    BarCalculus,
    WeakHomElement,
    builtin_algebra,
    builtin_module,
    lift_ulali,
    nonequivariant_twist,
    random_weak,
    thickened_lali,
    weak_compose,
    weak_differential,
    weak_from_strict,
    weak_zero,
)
from weakmaps.dg import boundary_gmap, gmap_compose
from weakmaps.schemas import load_algebra

from generators import CONE, EXTERIOR_DOWN, POLY3, dense_gmap_sum

ALGEBRAS = ("rationals", "dual_numbers", "exterior")
FILES = {"exterior_down": EXTERIOR_DOWN, "poly3": POLY3, "cone": CONE}
# L = 1..4 everywhere, and 5 as well where the tower stays small
CASES = [(alg, kind, L) for alg in ALGEBRAS + tuple(FILES)
         for kind in ("ground", "free")
         for L in range(1, 6 if alg in ALGEBRAS + ("exterior_down",) else 5)]


def module(alg, kind):
    """A fresh module, so no calculus or ladder is shared between tests."""
    a = load_algebra(FILES[alg]) if alg in FILES else builtin_algebra(alg)
    return builtin_module(a, kind)


def restrict(calc, n, full):
    """A map out of T^n M cut down along incl_w[n], once it is seen to
    vanish on the unit insertions."""
    cut = gmap_compose(full, calc.incl_w[n])
    assert gmap_compose(cut, calc.proj_w[n]) == full, n
    return cut


def reference_full(f, n, p=0):
    """T^p of component n inflated to T^n M."""
    calc = f.src.calculus(f.L)
    return calc.Tpow(p, gmap_compose(f.comps[n], calc.proj_w[n]))


def reference_rung(f, n, p):
    """T-bar^p f_n as T^p of the inflated component, between the
    reduced powers of source and target."""
    return gmap_compose(f.dst.calculus(f.L).proj_w[p], gmap_compose(
        reference_full(f, n, p), f.src.calculus(f.L).incl_w[n + p]))


def reference_compose(g, f, n):
    """Level n of g . f on the full power, every T-power built afresh and
    every term kept, summed densely."""
    calc = f.src.calculus(f.L)
    return restrict(calc, n, dense_gmap_sum(
        calc.pow[n], g.dst.cx, n + f.deg + g.deg,
        [(-1 if (p * f.deg) % 2 else 1, reference_full(g, p),
          reference_full(f, n - p, p)) for p in range(n + 1)]))


def reference_differential(f, n):
    """Level n of df on the full power, summed densely: D of the inflated
    component, the target action on T f_{n-1} and each tower face."""
    calc = f.src.calculus(f.L)
    sign = -1 if f.deg % 2 else 1
    full = reference_full(f, n)
    terms = [(1, boundary_gmap(full.dst), full),
             (-1 if full.deg % 2 == 0 else 1, full, boundary_gmap(full.src))]
    if n:
        terms.append((-sign, f.dst.act, reference_full(f, n - 1, 1)))
        terms += [(sign * (-1) ** j, reference_full(f, n - 1), calc.face(n, j))
                  for j in range(n)]
    return restrict(calc, n, dense_gmap_sum(full.src, full.dst, full.deg - 1,
                                            terms))


def reference_lift(modB, modA, f0, eps0, L):
    """The forced components of `lift_ulali` on the tower,
    f_n = eps0 . act . T f_{n-1} and eps_n = -eps0 . act . T eps_{n-1}."""
    comps = []
    for mod, sign, c in ((modA, 1, f0), (modB, -1, eps0)):
        calc = mod.calculus(L)
        fulls = [c]
        for _ in range(L):
            inner = gmap_compose(modB.act, calc.T(fulls[-1]))
            fulls.append(dense_gmap_sum(inner.src, eps0.dst, inner.deg + 1,
                                        [(sign, eps0, inner)]))
        comps.append([restrict(calc, n, m) for n, m in enumerate(fulls)])
    return comps


@pytest.mark.parametrize("alg,kind,L", CASES)
def test_ladder_and_composite_match_the_reference(alg, kind, L):
    mod = module(alg, kind)
    rng = random.Random(f"{alg}/{kind}/{L}")
    rungs = [(n, p) for n in range(L + 1) for p in range(L + 1 - n)]
    degrees = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    for i, (df, dg) in enumerate(degrees):
        f = random_weak(rng, mod, mod, df, L)
        g = random_weak(rng, mod, mod, dg, L)
        if i % 2:  # half the time the composite fills f's ladder first
            gf = weak_compose(g, f)
        order = rng.sample(rungs, len(rungs))
        got = {(n, p): f.rung(n, p) for n, p in order}
        for n, p in order:
            assert got[(n, p)] == reference_rung(f, n, p), (df, n, p)
            assert f.rung(n, p) is got[(n, p)]
        if not i % 2:
            gf = weak_compose(g, f)
        d = weak_differential(f)
        for n in range(L + 1):
            assert gf.comps[n] == reference_compose(g, f, n), (df, dg, n)
            assert d.comps[n] == reference_differential(f, n), (df, n)


@pytest.mark.parametrize("alg,kind,L", CASES)
def test_lift_components_match_the_reference(alg, kind, L):
    mod = module(alg, kind)
    # twisted where the carrier is A itself, as `lift lali` does, so the
    # forced higher components are nonzero
    twist = nonequivariant_twist(mod.alg) if mod.cx == mod.alg.cx else None
    modB, g, f0, eps0 = thickened_lali(mod, twist=twist)
    f, eps, rep = lift_ulali(modB, mod, g, f0, eps0, L)
    assert f is not None, [c.line() for c in rep.failures()]
    want_f, want_eps = reference_lift(modB, mod, f0, eps0, L)
    assert list(f.comps) == want_f
    assert list(eps.comps) == want_eps


def test_components_live_above_level_one_only_off_the_builtins():
    # the reason the reference also runs over EXTERIOR_DOWN: over every
    # built-in the ladder above level 1 is made of zero maps
    rng = random.Random(0)
    for alg in ALGEBRAS + ("exterior_down",):
        mod = module(alg, "free")
        maps = [random_weak(rng, mod, mod, deg, 4)
                for deg in (-1, 0, 1) for _ in range(5)]
        top = max(n for f in maps for n, c in enumerate(f.comps)
                  if not c.is_zero())
        assert top == (4 if alg == "exterior_down" else
                       0 if alg == "rationals" else 1), alg


class CountingCalculus(BarCalculus):
    def __init__(self, mod, L):
        super().__init__(mod, L)
        self.tbar_calls = 0

    def Tbar(self, f):
        self.tbar_calls += 1
        return super().Tbar(f)


def live(w):
    return [n for n, c in enumerate(w.comps) if not c.is_zero()]


def ladder_tops(g, f):
    """The top rung of each ladder that weak_compose(g, f) reads: for
    each live f_q, the highest p <= L - q with g_p live (0 if none)."""
    return {q: max([p for p in live(g) if p <= f.L - q], default=0)
            for q in live(f)}


@pytest.mark.parametrize("L", range(2, 6))
@pytest.mark.parametrize("alg", ("exterior", "exterior_down"))
def test_compose_applies_T_once_per_rung(alg, L):
    # a work count: each ladder climbs once, to the top rung a live term
    # reads, so a composite costs the rungs above those already built;
    # all of them is L(L+1)/2, where rebuilding T-bar^p f_q per term
    # would take L(L+1)(L+2)/6
    mod = module(alg, "free")
    calc = mod._calcs[L] = CountingCalculus(mod, L)
    rng = random.Random(L)
    f, g, h = (random_weak(rng, mod, mod, d, L) for d in (-1, 0, 1))
    built = dict.fromkeys(range(L + 1), 0)
    for outer in (g, h, g, h):
        tops = ladder_tops(outer, f)
        need = sum(max(0, top - built[q]) for q, top in tops.items())
        before = calc.tbar_calls
        weak_compose(outer, f)
        assert calc.tbar_calls - before == need
        built.update({q: max(built[q], top) for q, top in tops.items()})
    assert sum(built.values()) <= L * (L + 1) // 2
    # over exterior, g of degree 0 is live at level 0 only and reads no
    # rung; over exterior_down every level is live
    assert live(g) == ([0] if alg == "exterior" else list(range(L + 1)))


def test_compose_builds_no_rung_for_a_g_p_with_no_block():
    L = 4
    mod = module("exterior_down", "free")
    calc = mod._calcs[L] = CountingCalculus(mod, L)
    rng = random.Random(0)
    f, g = (random_weak(rng, mod, mod, 0, L) for _ in range(2))
    assert live(f) == live(g) == list(range(L + 1))
    # g kept at level 2 alone: only the ladders of f_0, f_1 and f_2 climb,
    # each to rung 2
    z = weak_zero(mod, mod, 0, L)
    only2 = WeakHomElement(mod, mod, 0, L, z.comps[:2] + g.comps[2:3] + z.comps[3:])
    weak_compose(weak_from_strict(g.comps[0], mod, mod, L), f)
    assert calc.tbar_calls == 0
    assert [len(r) for r in f._rungs] == [1] * (L + 1)
    weak_compose(only2, f)
    assert calc.tbar_calls == 6
    assert [len(r) for r in f._rungs] == [3, 3, 3, 1, 1]
