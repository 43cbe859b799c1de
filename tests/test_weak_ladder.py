"""The T-ladder of a coherent map against the from-scratch convolution.

`WeakHomElement.full(n, p)` keeps T^p(comps[n] . proj_w[n]) once it is
built, each rung as T of the rung below.  The reference here rebuilds
every T-power with `Tpow` for every term, as the convolution did before
the ladder existed, and every rung and every composite must equal it.
"""

import random

import pytest

from weakmaps.bar import (
    BarCalculus,
    builtin_algebra,
    builtin_module,
    random_weak,
    weak_compose,
)
from weakmaps.dg import gmap_add, gmap_compose, gmap_smul, zero_gmap
from weakmaps.schemas import load_algebra

from generators import EXTERIOR_DOWN

ALGEBRAS = ("rationals", "dual_numbers", "exterior")


def module(alg, kind):
    """A fresh module, so no calculus or ladder is shared between tests."""
    a = (load_algebra(EXTERIOR_DOWN) if alg == "exterior_down"
         else builtin_algebra(alg))
    return builtin_module(a, kind)


def reference_full(f, n, p):
    calc = f.src.calculus(f.L)
    return calc.Tpow(p, gmap_compose(f.comps[n], calc.proj_w[n]))


def reference_compose(g, f, n):
    """Level n of g . f on the full power, every T-power built afresh."""
    calc = f.src.calculus(f.L)
    out = zero_gmap(calc.pow[n], g.dst.cx, n + f.deg + g.deg)
    for p in range(n + 1):
        term = gmap_compose(reference_full(g, p, 0),
                            reference_full(f, n - p, p))
        out = gmap_add(out, gmap_smul(-1, term) if (p * f.deg) % 2 else term)
    return out


@pytest.mark.parametrize("L", range(1, 6))
@pytest.mark.parametrize("kind", ("ground", "free"))
@pytest.mark.parametrize("alg", ALGEBRAS + ("exterior_down",))
def test_ladder_and_composite_match_the_reference(alg, kind, L):
    mod = module(alg, kind)
    calc = mod.calculus(L)
    rng = random.Random(f"{alg}/{kind}/{L}")
    rungs = [(n, p) for n in range(L + 1) for p in range(L + 1 - n)]
    degrees = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    for i, (df, dg) in enumerate(degrees):
        f = random_weak(rng, mod, mod, df, L)
        g = random_weak(rng, mod, mod, dg, L)
        if i % 2:  # half the time the composite fills f's ladder first
            gf = weak_compose(g, f)
        order = rng.sample(rungs, len(rungs))
        got = {(n, p): f.full(n, p) for n, p in order}
        for n, p in order:
            assert got[(n, p)] == reference_full(f, n, p), (df, n, p)
            assert f.full(n, p) is got[(n, p)]
        if not i % 2:
            gf = weak_compose(g, f)
        for n in range(L + 1):
            want = reference_compose(g, f, n)
            assert gf.full(n) == want, (df, dg, n)
            assert gf.comps[n] == gmap_compose(want, calc.incl_w[n])


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
        self.t_calls = 0

    def T(self, f):
        self.t_calls += 1
        return super().T(f)


@pytest.mark.parametrize("L", range(2, 6))
@pytest.mark.parametrize("alg", ("exterior", "exterior_down"))
def test_compose_applies_T_once_per_rung(alg, L):
    # a work count: level q of f needs rungs 1..L-q, so L(L+1)/2 in all;
    # rebuilding T^p f_q per term would take L(L+1)(L+2)/6
    mod = module(alg, "free")
    calc = mod._calcs[L] = CountingCalculus(mod, L)
    rng = random.Random(L)
    f, g, h = (random_weak(rng, mod, mod, d, L) for d in (-1, 0, 1))
    before = calc.t_calls
    weak_compose(g, f)
    assert calc.t_calls - before <= L * (L + 1) // 2
    before = calc.t_calls
    weak_compose(h, f)  # f's ladder is built; g's and h's rung 0 cost no T
    assert calc.t_calls == before
