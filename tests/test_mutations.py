"""Each check name FAILs, alone, under a data corruption of its own.

A row names a check, the `weakmaps` argv that records it, and a
corruption of the data that argv computes with: the reduced face sums
of the module's bar calculus, or a rung of the T-bar ladder of an
element the check is fed.  The check code itself is never patched.  The
run must exit 1 with FAIL lines under exactly that name, each with two
sides that differ.

Over the built-in algebras every coherent component above level 1
vanishes by degree, so the `dg.assoc` row runs over `EXTERIOR_DOWN`,
where the rung it poisons meets a nonzero component.
"""

import itertools
import json

import pytest

import weakmaps.bar as bar
import weakmaps.cli as cli
from weakmaps.bar import DgAlgebra, DgModule, random_weak, weak_identity
from weakmaps.dg import GradedMap, gmap_sum, tensor_complex
from weakmaps.ratmat import mat
from weakmaps.report import FAIL

from generators import EXTERIOR_DOWN


def _calculus_of_inputs(monkeypatch, corrupt):
    """Hand `corrupt` the bar calculus of the module that `dg check`
    loads, after its law checks ran and before any coherent map is."""
    load = cli._dg_inputs

    def inputs(ns):
        cfg, alg, mod, laws = load(ns)
        corrupt(mod, mod.calculus(ns.trunc))
        return cfg, alg, mod, laws
    monkeypatch.setattr(cli, "_dg_inputs", inputs)


def _poison(e, n, p):
    """Double rung p of level n of e's ladder, leaving the rest as built."""
    r = e.rung(n, p)
    e._rungs[n][p] = gmap_sum(r.src, r.dst, r.deg, [(2, r)])
    return e


def faces_over_q_times_q(monkeypatch):
    # the face sums ebar_n, n >= 2, take the faces that multiply two
    # Abar slots from x.x = x (Q x Q) instead of x.x = 0; ebar_1, the
    # action on an Abar slot, stays.  They still follow the face
    # recursion, so Leibniz holds, but the action is not associative for
    # the new product and d.d picks that up
    def corrupt(mod, calc):
        a = mod.alg
        mult = GradedMap(tensor_complex(a.cx, a.cx), a.cx, 0,
                         {0: mat([[1, 0, 0, 0], [0, 1, 1, 1]])})
        other = DgModule(DgAlgebra(a.cx, a.unit, mult), mod.cx,
                         mod.act).calculus(calc.L)
        for n in range(2, calc.L + 1):
            calc._ebar[n] = other.ebar(n)
    _calculus_of_inputs(monkeypatch, corrupt)


def last_faces_from_another_action(monkeypatch):
    # the face sums ebar_n, n >= 2, take their last face from the lawful
    # action where x acts by 0, while ebar_1, which the differential's
    # action term also reads, keeps x.1 = x: d.d = 0 still holds,
    # Leibniz needs the two actions to agree
    def corrupt(mod, calc):
        act = GradedMap(mod.act.src, mod.act.dst, 0,
                        {0: mat([[1, 0, 0, 0], [0, 1, 0, 0]])})
        other = DgModule(mod.alg, mod.cx, act).calculus(calc.L)
        for n in range(2, calc.L + 1):
            calc._ebar[n] = other.ebar(n)
    _calculus_of_inputs(monkeypatch, corrupt)


def poisoned_g_rung(monkeypatch):
    # rung 2 of g's level 0 is read only by h . g: Leibniz reads rungs 0
    # and 1 of g, and nothing else reads g's ladder
    draws = itertools.count()

    def draw(rng, src, dst, deg, L):
        e = random_weak(rng, src, dst, deg, L)
        return _poison(e, 0, 2) if next(draws) % 3 == 1 else e
    monkeypatch.setattr(bar, "random_weak", draw)


def poisoned_identity(monkeypatch):
    # T-bar(id) doubled on the identity's ladder: only f . 1 reads it (the
    # other caller in bar, lift_ulali, runs under `lift lali` only)
    monkeypatch.setattr(bar, "weak_identity",
                        lambda mod, L: _poison(weak_identity(mod, L), 0, 1))


ROWS = {
    "dg.ddzero": (None, faces_over_q_times_q),
    "dg.leibniz": (None, last_faces_from_another_action),
    "dg.assoc": (EXTERIOR_DOWN, poisoned_g_rung),
    "dg.unit": (None, poisoned_identity),
}


@pytest.mark.parametrize("name", ROWS)
def test_corruption_fails_exactly_its_check(name, monkeypatch, tmp_path,
                                            capsys):
    algebra, corrupt = ROWS[name]
    argv = ["dg", "check", "--trunc", "3", "--trials", "3", "--module", "free"]
    if algebra is not None:
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(algebra))
        argv += ["--dgalgebra", str(path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    corrupt(monkeypatch)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    fails = [line for line in out.splitlines() if f": {FAIL}(" in line]
    assert fails and {line.split()[1] for line in fails} == {name}, fails
    for line in fails:
        lhs, rhs = line.split(": FAIL(lhs=", 1)[1].rsplit(", rhs=", 1)
        assert lhs != rhs.removesuffix(")"), line
