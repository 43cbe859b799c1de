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
    builtin_algebra,
    builtin_module,
    lift_ulali,
    nonequivariant_twist,
    random_weak,
    thickened_lali,
    weak_compose,
    weak_differential,
)
from weakmaps.dg import (gmap_add, gmap_compose, gmap_smul, gmap_sub,
                         graded_differential, zero_gmap)
from weakmaps.schemas import load_algebra

from generators import CONE, EXTERIOR_DOWN, POLY3

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
    """Level n of g . f on the full power, every T-power built afresh."""
    calc = f.src.calculus(f.L)
    out = zero_gmap(calc.pow[n], g.dst.cx, n + f.deg + g.deg)
    for p in range(n + 1):
        term = gmap_compose(reference_full(g, p), reference_full(f, n - p, p))
        out = gmap_add(out, gmap_smul(-1, term) if (p * f.deg) % 2 else term)
    return restrict(calc, n, out)


def reference_differential(f, n):
    """Level n of df on the full power: the target action on T f_{n-1}
    and the alternating sum of the tower faces."""
    calc = f.src.calculus(f.L)
    sign = -1 if f.deg % 2 else 1
    out = graded_differential(reference_full(f, n))
    if n:
        out = gmap_sub(out, gmap_smul(sign, gmap_compose(
            f.dst.act, reference_full(f, n - 1, 1))))
        out = gmap_add(out, gmap_smul(sign, gmap_compose(
            reference_full(f, n - 1), calc.facesum(n))))
    return restrict(calc, n, out)


def reference_lift(modB, modA, f0, eps0, L):
    """The forced components of `lift_ulali` on the tower,
    f_n = eps0 . act . T f_{n-1} and eps_n = -eps0 . act . T eps_{n-1}."""
    comps = []
    for mod, sign, c in ((modA, 1, f0), (modB, -1, eps0)):
        calc = mod.calculus(L)
        fulls = [c]
        for _ in range(L):
            fulls.append(gmap_smul(sign, gmap_compose(
                eps0, gmap_compose(modB.act, calc.T(fulls[-1])))))
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


@pytest.mark.parametrize("L", range(2, 6))
@pytest.mark.parametrize("alg", ("exterior", "exterior_down"))
def test_compose_applies_T_once_per_rung(alg, L):
    # a work count: level q of f needs rungs 1..L-q, so L(L+1)/2 in all;
    # rebuilding T-bar^p f_q per term would take L(L+1)(L+2)/6
    mod = module(alg, "free")
    calc = mod._calcs[L] = CountingCalculus(mod, L)
    rng = random.Random(L)
    f, g, h = (random_weak(rng, mod, mod, d, L) for d in (-1, 0, 1))
    before = calc.tbar_calls
    weak_compose(g, f)
    assert 0 < calc.tbar_calls - before <= L * (L + 1) // 2
    before = calc.tbar_calls
    # f's ladder is built; g's and h's rung 0 cost no T-bar
    weak_compose(h, f)
    assert calc.tbar_calls == before
