"""Bar resolution and homotopy-coherent module maps over a dg-algebra.

Everything here is relative to the functor T = A (x) - for a fixed
unital dg-algebra A over the rationals.  The bar levels of a module M
are the right-nested powers X_n = T^{n+1}M; faces multiply adjacent
tensor slots (the last one acts on M) and degeneracies insert the unit.
Splitting off the unit, A = Q.1 (+) Abar, the truncated resolution |X|
stacks the reduced pieces A (x) Abar^{(x)n} (x) M with the level as a
degree shift, built from faces on the pieces themselves; strict maps out
of |X| act on those levels too.  The powers are only what the checks
compare |X| with.

Truncation at level L is explicit everywhere.  The total differential
never raises the level, so |X| is an honest complex and almost every
structural equation holds on the nose; the single exception is the
contraction identity D(xi) = 1 - q.p at level L, which would need level
L+1 and is reported TRUNCATION-EXEMPT rather than approximated.

A homotopy-coherent map M ~> N of degree i is a family of components
f_n : Abar^{(x)n} (x) M -> N in degree n+i.  Composition and the
differential follow the reduced face calculus; level n of any output
reads only levels <= n of the inputs, so both are exact under truncation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate

from .dg import (ChainComplex, GradedMap, assoc_iso, boundary_gmap,
                 chain_sides, gmap_add, gmap_compose, gmap_smul, gmap_sub,
                 graded_differential, HomologicalLali, id_gmap, lunit_iso,
                 random_gmap, runit_iso, signed_perm_inverse, tensor_complex,
                 tensor_map, unit_complex, zero_gmap)
from . import InputError
from .ratmat import (assemble, entries, eye, mat, mmul, nonzeros, rank,
                     transpose)
from .report import CheckReport


class BarError(InputError):
    pass


# ---------------------------------------------------------------------------
# Algebras and modules


class DgAlgebra:
    """Unital dg-algebra with a chosen splitting A = Q.1 (+) Abar.

    The splitting picks the first nonzero coordinate of the unit vector
    as pivot; Abar keeps the remaining degree-0 coordinates and all of
    the other degrees.  Abar need not be closed under d in A, but the
    induced differential proj.d.incl still squares to zero when the
    unit is a cycle, and that is the only differential the reduced
    powers ever use.  Abar is built either way, so a unit that is not a
    cycle is reported by `alg.unit.chain`.
    """

    def __init__(self, cx: ChainComplex, unit: GradedMap, mult: GradedMap,
                 name: str = "A"):
        if unit.src != unit_complex() or unit.dst != cx or unit.deg != 0:
            raise BarError("unit must be a degree-0 map I -> A")
        if (mult.src, mult.dst, mult.deg) != (tensor_complex(cx, cx), cx, 0):
            raise BarError("mult must be a degree-0 map A(x)A -> A")
        self.cx = cx
        self.unit = unit
        self.mult = mult
        self.name = name

        if 0 not in unit.mats:
            raise BarError("unit vector is zero")
        piv, _, upiv = next(entries(unit.mats[0]))
        n0 = cx.dim(0)
        keep = [j for j in range(n0) if j != piv]
        imats = {k: eye(cx.dim(k)) for k in cx.degrees() if k != 0}
        pmats = dict(imats)
        if keep:
            # Abar_0 is the coordinates other than piv; proj also takes
            # off the unit component, (u_j / u_piv) times coordinate piv
            rest = n0 - 1 - piv
            imats[0] = assemble(n0, n0 - 1, [(eye(piv), 0, 0),
                                              (eye(rest), piv + 1, piv)])
            ukeep = mmul(transpose(imats[0]), unit.mats[0])
            pmats[0] = assemble(n0 - 1, n0, [
                (eye(piv), 0, 0), (eye(rest), piv, piv + 1),
                (ukeep, 0, piv, -1 / Fraction(upiv))])
        bdims = {k: cx.dim(k) for k in cx.degrees() if k != 0}
        if keep:
            bdims[0] = len(keep)
        bd = {}
        for k in cx.d:
            if bdims.get(k) and bdims.get(k - 1):
                # proj . d . incl per degree; only degree 0 differs
                bd[k] = mmul(pmats[k - 1], mmul(cx.d[k], imats[k]))
        self.abar = ChainComplex(bdims, bd)
        self.incl_bar = GradedMap(self.abar, cx, 0, imats)
        self.proj_bar = GradedMap(cx, self.abar, 0, pmats)
        prow = assemble(1, n0, [(eye(1), 0, piv, 1 / Fraction(upiv))])
        self.pivot = GradedMap(cx, unit_complex(), 0, {0: prow})

    def validate(self, report: CheckReport = None) -> CheckReport:
        rep = report if report is not None else CheckReport()
        a = self.cx
        one = id_gmap(a)
        rep.record("alg.unit.chain", self.name, *chain_sides(self.unit))
        rep.record("alg.mult.chain", self.name, *chain_sides(self.mult))
        rep.eq("alg.unit.left", self.name,
               gmap_compose(self.mult, unit_insert(self, a)), one)
        ru = gmap_compose(self.mult, tensor_map(one, self.unit))
        rep.eq("alg.unit.right", self.name,
               gmap_compose(ru, signed_perm_inverse(runit_iso(a))), one)
        lhs = gmap_compose(self.mult, tensor_map(self.mult, one))
        rhs = gmap_compose(self.mult, gmap_compose(tensor_map(one, self.mult),
                                                   assoc_iso(a, a, a)))
        rep.eq("alg.assoc", self.name, lhs, rhs)
        rep.eq("alg.split.section", self.name,
               gmap_compose(self.proj_bar, self.incl_bar), id_gmap(self.abar))
        rep.eq("alg.split.pivot", self.name,
               gmap_compose(self.pivot, self.unit), id_gmap(unit_complex()))
        recover = gmap_add(gmap_compose(self.incl_bar, self.proj_bar),
                           gmap_compose(self.unit, self.pivot))
        rep.eq("alg.split.recover", self.name, recover, one)
        return rep

    def __eq__(self, other):
        return (isinstance(other, DgAlgebra) and self.cx == other.cx
                and self.unit == other.unit and self.mult == other.mult)


def unit_insert(alg: DgAlgebra, x: ChainComplex) -> GradedMap:
    """X -> A (x) X tensoring with the unit on the left."""
    up = tensor_map(alg.unit, id_gmap(x))
    return gmap_compose(up, signed_perm_inverse(lunit_iso(x)))


def builtin_algebra(kind: str) -> DgAlgebra:
    """'rationals', 'dual_numbers' or 'exterior' (degree-1 generator)."""
    if kind == "rationals":
        cx = ChainComplex({0: 1}, {})
        unit = GradedMap(unit_complex(), cx, 0, {0: mat([[1]])})
        mult = GradedMap(tensor_complex(cx, cx), cx, 0, {0: mat([[1]])})
        return DgAlgebra(cx, unit, mult, name="rationals")
    if kind == "dual_numbers":
        # basis 1, x with x.x = 0, both in degree 0
        cx = ChainComplex({0: 2}, {})
        unit = GradedMap(unit_complex(), cx, 0, {0: mat([[1], [0]])})
        mult = GradedMap(tensor_complex(cx, cx), cx, 0,
                         {0: mat([[1, 0, 0, 0], [0, 1, 1, 0]])})
        return DgAlgebra(cx, unit, mult, name="dual_numbers")
    if kind == "exterior":
        # basis 1 in degree 0, e in degree 1, e.e = 0
        cx = ChainComplex({0: 1, 1: 1}, {})
        unit = GradedMap(unit_complex(), cx, 0, {0: mat([[1]])})
        mult = GradedMap(tensor_complex(cx, cx), cx, 0,
                         {0: mat([[1]]), 1: mat([[1, 1]])})
        return DgAlgebra(cx, unit, mult, name="exterior")
    raise BarError(f"unknown algebra kind: {kind!r}")


class DgModule:
    """Left A-module in complexes: an action A (x) M -> M."""

    def __init__(self, alg: DgAlgebra, cx: ChainComplex, act: GradedMap,
                 name: str = "M"):
        if (act.src, act.dst, act.deg) != (tensor_complex(alg.cx, cx), cx, 0):
            raise BarError("action must be a degree-0 map A(x)M -> M")
        self.alg = alg
        self.cx = cx
        self.act = act
        self.name = name
        self._calcs = {}

    def validate(self, report: CheckReport = None) -> CheckReport:
        rep = report if report is not None else CheckReport()
        a = self.alg.cx
        rep.record("mod.act.chain", self.name, *chain_sides(self.act))
        rep.eq("mod.act.unit", self.name,
               gmap_compose(self.act, unit_insert(self.alg, self.cx)),
               id_gmap(self.cx))
        lhs = gmap_compose(self.act,
                           gmap_compose(tensor_map(id_gmap(a), self.act),
                                        assoc_iso(a, a, self.cx)))
        rhs = gmap_compose(self.act,
                           tensor_map(self.alg.mult, id_gmap(self.cx)))
        rep.eq("mod.act.assoc", self.name, lhs, rhs)
        return rep

    @cached_property
    def ebar1(self) -> GradedMap:
        """The action on an Abar slot, the reduced face sum ebar_1."""
        up = tensor_map(self.alg.incl_bar, id_gmap(self.cx))
        return gmap_compose(self.act, up)

    def calculus(self, L: int) -> "BarCalculus":
        if L not in self._calcs:
            self._calcs[L] = BarCalculus(self, L)
        return self._calcs[L]

    def __eq__(self, other):
        return (isinstance(other, DgModule) and self.alg == other.alg
                and self.cx == other.cx and self.act == other.act)


def builtin_module(alg: DgAlgebra, kind: str) -> DgModule:
    """'free' is A acting on itself; 'ground' kills Abar coordinates."""
    if kind == "free":
        return DgModule(alg, alg.cx, alg.mult, name="free")
    if kind == "ground":
        cx = unit_complex()
        # A (x) I in degree 0 is A_0; project onto the unit coefficient
        act = GradedMap(tensor_complex(alg.cx, cx), cx, 0,
                        {0: alg.pivot.mats[0]})
        return DgModule(alg, cx, act, name="ground")
    raise BarError(f"unknown module kind: {kind!r}")


# ---------------------------------------------------------------------------
# The face and degeneracy calculus on powers T^n M


def left_powers(tensor, a, x, n: int) -> list:
    """x, a (x) x, a (x) a (x) x, ..., n factors of a at the last."""
    return list(accumulate([a] * n, lambda y, b: tensor(b, y), initial=x))


class BarCalculus:
    """Caches the reduced powers Y_n = Abar^{(x)n} (x) M, on which the
    coherent maps and |X| compute through T-bar and the face sums ebar_n,
    and the tower T^n M with its simplicial maps for the checks.

    `barpow[n]` is Y_n with the inherited quotient differential; ups /
    downs split the first slot of A (x) Y_n, and incl_w / proj_w split
    Y_n off T^n M slotwise (incl_w is generally not a chain map, proj_w
    always is).  Powers run up to L+2 so the faces and degeneracies of
    the level L+1 bar stage exist.  The tower `pow`, incl_w and proj_w
    are built on first read: only the checks of `bar resolve` read them.
    """

    def __init__(self, mod: DgModule, L: int):
        if L < 1:
            raise BarError("truncation level must be at least 1")
        self.mod = mod
        self.alg = mod.alg
        self.L = L
        self._mu = {}
        self._face = {}
        self._degen = {}
        self._facesum = {}
        self._ebar = {1: mod.ebar1}
        a = self.alg
        self.barpow = y = left_powers(tensor_complex, a.abar, mod.cx, L + 1)
        self.ups = [tensor_map(a.incl_bar, id_gmap(x)) for x in y[:L]]
        self.downs = [tensor_map(a.proj_bar, id_gmap(x)) for x in y[:L]]
        self._one = id_gmap(a.cx)
        self._onebar = id_gmap(a.abar)

    @cached_property
    def pow(self) -> list:
        return left_powers(tensor_complex, self.alg.cx, self.mod.cx, self.L + 2)

    @cached_property
    def incl_w(self) -> list:
        return left_powers(tensor_map, self.alg.incl_bar, id_gmap(self.mod.cx), self.L + 1)

    @cached_property
    def proj_w(self) -> list:
        return left_powers(tensor_map, self.alg.proj_bar, id_gmap(self.mod.cx), self.L + 1)

    def T(self, f: GradedMap) -> GradedMap:
        """A (x) f with the Koszul sign on the A-degree."""
        return tensor_map(self._one, f)

    def Tbar(self, f: GradedMap) -> GradedMap:
        """Abar (x) f, the reduced functor T-bar."""
        return tensor_map(self._onebar, f)

    def ebar(self, n: int) -> GradedMap:
        """sum_{j<n} (-1)^j dbar_j : Y_n -> Y_{n-1} for n <= L, built as
        dbar_0 - T-bar ebar_{n-1}; dbar_0 multiplies the two front slots."""
        if n not in self._ebar:
            d0 = gmap_compose(self.downs[n - 2], gmap_compose(
                self.mu_on(self.barpow[n - 2]),
                tensor_map(self.alg.incl_bar, self.ups[n - 2])))
            self._ebar[n] = gmap_sub(d0, self.Tbar(self.ebar(n - 1)))
        return self._ebar[n]

    def strict_sides(self, u: GradedMap, src_act: GradedMap,
                     dst_act: GradedMap):
        """(u . src_act, dst_act . T u), equal iff u is a strict module
        map between the two actions."""
        return gmap_compose(u, src_act), gmap_compose(dst_act, self.T(u))

    def Tpow(self, j: int, f: GradedMap) -> GradedMap:
        """T^j f.  Faces and degeneracies are built from their base, not
        as T of a neighbour one power down, so that `bar.shift` compares
        two independently built towers."""
        for _ in range(j):
            f = self.T(f)
        return f

    def mu_on(self, x: ChainComplex) -> GradedMap:
        """A (x) (A (x) X) -> A (x) X multiplying the two outer slots."""
        if x not in self._mu:
            a = self.alg.cx
            self._mu[x] = gmap_compose(tensor_map(self.alg.mult, id_gmap(x)),
                                       signed_perm_inverse(assoc_iso(a, a, x)))
        return self._mu[x]

    def face(self, n: int, j: int) -> GradedMap:
        """d_j : T^n M -> T^{n-1} M for 0 <= j <= n-1."""
        key = (n, j)
        if key not in self._face:
            if not (n >= 1 and 0 <= j <= n - 1):
                raise BarError(f"no face d_{j} on power {n}")
            if j == n - 1:
                self._face[key] = self.Tpow(n - 1, self.mod.act)
            else:
                self._face[key] = self.Tpow(
                    j, self.mu_on(self.pow[n - j - 2]))
        return self._face[key]

    def degen(self, n: int, j: int) -> GradedMap:
        """s_j : T^n M -> T^{n+1} M for -1 <= j <= n-1; s_{-1} inserts
        the unit in front."""
        key = (n, j)
        if key not in self._degen:
            if not (-1 <= j <= n - 1):
                raise BarError(f"no degeneracy s_{j} on power {n}")
            self._degen[key] = (
                unit_insert(self.alg, self.pow[n]) if j == -1
                else self.Tpow(j + 1, self.degen(n - j - 1, -1)))
        return self._degen[key]

    def facesum(self, n: int) -> GradedMap:
        """Alternating sum of all faces out of T^n M."""
        if n not in self._facesum:
            total = zero_gmap(self.pow[n], self.pow[n - 1], 0)
            for j in range(n):
                term = self.face(n, j)
                total = gmap_add(total,
                                 term if j % 2 == 0 else gmap_smul(-1, term))
            self._facesum[n] = total
        return self._facesum[n]


def validate_bar(c: BarCalculus, report: CheckReport = None) -> CheckReport:
    """Check the simplicial and contraction identities on the powers of c
    up to the power L+2; the identity counts are aggregated per family to
    keep reports short.
    """
    rep = report if report is not None else CheckReport()
    top = c.L + 2
    sub = f"{c.alg.name}/{c.mod.name}"

    fam = rep.family("bar.face_face")
    for n in range(2, top + 1):
        for j in range(1, n):
            for i in range(j):
                lhs = gmap_compose(c.face(n - 1, i), c.face(n, j))
                rhs = gmap_compose(c.face(n - 1, j - 1), c.face(n, i))
                fam.check(lhs == rhs, f"{sub} n={n} i={i} j={j}", lhs, rhs)
    fam.close(sub)

    fam = rep.family("bar.face_degen")
    for n in range(1, top):
        for j in range(-1, n):
            for i in range(n + 1):
                got = gmap_compose(c.face(n + 1, i), c.degen(n, j))
                if i < j:
                    want = gmap_compose(c.degen(n - 1, j - 1), c.face(n, i))
                elif i in (j, j + 1):
                    want = id_gmap(c.pow[n])
                else:
                    want = gmap_compose(c.degen(n - 1, j), c.face(n, i - 1))
                fam.check(got == want, f"{sub} n={n} i={i} j={j}", got, want)
    fam.close(sub)

    fam = rep.family("bar.degen_degen")
    for n in range(0, top - 1):
        for j in range(-1, n):
            for i in range(-1, j + 1):
                lhs = gmap_compose(c.degen(n + 1, i), c.degen(n, j))
                rhs = gmap_compose(c.degen(n + 1, j + 1), c.degen(n, i))
                fam.check(lhs == rhs, f"{sub} n={n} i={i} j={j}", lhs, rhs)
    fam.close(sub)

    fam = rep.family("bar.shift")
    for n in range(1, top):
        for i in range(n):
            lhs, rhs = c.T(c.face(n, i)), c.face(n + 1, i + 1)
            fam.check(lhs == rhs, f"{sub} face n={n} i={i}", lhs, rhs)
        for j in range(-1, n):
            lhs, rhs = c.T(c.degen(n, j)), c.degen(n + 1, j + 1)
            fam.check(lhs == rhs, f"{sub} degen n={n} j={j}", lhs, rhs)
    fam.close(sub)

    fam = rep.family("bar.chain")
    maps = [(f"face n={n} j={j}", c.face(n, j))
            for n in range(1, top + 1) for j in range(n)]
    maps += [(f"degen n={n} j={j}", c.degen(n, j))
             for n in range(1, top) for j in range(-1, n)]
    for what, m in maps:
        ok, lhs, rhs = chain_sides(m)
        fam.check(ok, f"{sub} {what}", lhs, rhs)
    fam.close(sub)

    rep.eq("bar.augment", sub,
           gmap_compose(c.face(1, 0), c.face(2, 0)),
           gmap_compose(c.face(1, 0), c.face(2, 1)))
    return rep


# ---------------------------------------------------------------------------
# Truncated codescent


class TruncatedCodescent:
    """The reduced bar stages assembled into one complex.

    Level n holds A (x) Abar^{(x)n} (x) M shifted up by n, and its faces
    act on it directly, so no map on the tower T^{n+1}M is formed: d_0
    multiplies the first two slots, and the other faces sum to -T ebar_n.
    The total differential has two strips,

        d_tot . tag_n = tag_{n-1} . (d_0 - T ebar_n)  +  (-1)^n tag_n . d_X

    and since it only ever lowers or keeps the level, cutting at L leaves
    a subcomplex and d.d = 0 holds exactly.  p, q, xi and the algebra
    structure abar act on the levels too; `validate` compares them and
    the strips with the tower through iota_n = tag_n . T proj_w[n].
    """

    def __init__(self, calc: BarCalculus):
        self.calc = calc
        self.L = L = calc.L
        a, y = calc.alg, calc.barpow
        self.levels = [tensor_complex(a.cx, x) for x in y[:L + 1]]

        dims, offs = {}, {}
        for n, lv in enumerate(self.levels):
            for m in lv.degrees():
                offs[(m + n, n)] = dims.get(m + n, 0)
                dims[m + n] = offs[(m + n, n)] + lv.dim(m)
        terms = {}
        for n, lv in enumerate(self.levels):
            strips = [(n, -1 if n % 2 else 1, boundary_gmap(lv))]
            if n:
                d0 = gmap_compose(calc.mu_on(y[n - 1]),
                                  calc.T(calc.ups[n - 1]))
                strips.append((n - 1, 1, gmap_sub(d0, calc.T(calc.ebar(n)))))
            for row, sign, f in strips:
                for m, b in f.mats.items():
                    terms.setdefault(m + n, []).append(
                        (b, offs[(m + n - 1, row)], offs[(m + n, n)], sign))
        self.total = ChainComplex(dims, {k: assemble(dims[k - 1], dims[k], ts)
                                         for k, ts in terms.items()})

        self.tag_n, self.read_n = [], []
        for n, lv in enumerate(self.levels):
            tmats = {m: assemble(dims[m + n], lv.dim(m),
                                 [(eye(lv.dim(m)), offs[(m + n, n)], 0)])
                     for m in lv.degrees()}
            self.tag_n.append(GradedMap(lv, self.total, n, tmats))
            self.read_n.append(GradedMap(self.total, lv, -n, {
                m + n: transpose(t) for m, t in tmats.items()}))
        self._iota = {}

        # q and xi insert the unit: xi sends a0[a1|...]m to 1[a0bar|a1|...]m
        self.p = gmap_compose(calc.mod.act, self.read_n[0])
        self.q = gmap_compose(self.tag_n[0], unit_insert(a, calc.mod.cx))
        self.xi = reduce(gmap_add, (gmap_compose(
            gmap_compose(self.tag_n[n + 1], calc.T(calc.downs[n])),
            gmap_compose(unit_insert(a, lv), self.read_n[n]))
            for n, lv in enumerate(self.levels[:L])))

    @cached_property
    def abar(self) -> GradedMap:
        """A (x) |X| -> |X| multiplying into each level's first slot.  Built
        on first use, as A (x) |X| exists only once `cod.boundary.sq` holds."""
        calc = self.calc
        return reduce(gmap_add, (
            gmap_compose(self.tag_n[n], gmap_compose(
                calc.mu_on(calc.barpow[n]), calc.T(self.read_n[n])))
            for n in range(self.L + 1)))

    def iota(self, n: int) -> GradedMap:
        """X_n -> |X|, killing the degenerate part of the stage."""
        if n not in self._iota:
            self._iota[n] = gmap_compose(
                self.tag_n[n], self.calc.T(self.calc.proj_w[n]))
        return self._iota[n]

    def glue(self, ms) -> GradedMap:
        """The map out of |X| acting on level n by ms[n], for maps ms[n]
        out of levels[n] of degree n + i; the sum has degree i."""
        return reduce(gmap_add, (gmap_compose(m, self.read_n[n])
                                 for n, m in enumerate(ms)))

    def eq_below_top(self, rep: CheckReport, name: str, sub: str,
                     lhs: GradedMap, rhs: GradedMap):
        """lhs = rhs on each level below L, read through tag_n; level L
        is TRUNCATION-EXEMPT."""
        for n in range(self.L):
            rep.eq(name, f"{sub} level={n}", gmap_compose(lhs, self.tag_n[n]),
                   gmap_compose(rhs, self.tag_n[n]))
        rep.exempt(name, f"{sub} level={self.L}")

    def validate(self, report: CheckReport = None) -> CheckReport:
        rep = report if report is not None else CheckReport()
        calc = self.calc
        sub = f"{calc.alg.name}/{calc.mod.name}"
        d = self.total.d
        fam = rep.family("cod.boundary.sq")
        for k in sorted(d):
            if k - 1 in d:
                nz = nonzeros(mmul(d[k - 1], d[k]))  # "" iff d.d = 0 here
                fam.check(not nz, f"{sub} k={k}", nz, 0)
        if not fam.close(sub):
            return rep  # the checks below build A (x) |X|, which needs d.d = 0

        fam = rep.family("cod.iota.degen")
        for n in range(1, self.L + 1):
            it = self.iota(n)
            for j in range(n):
                m = gmap_compose(it, calc.degen(n, j))
                fam.check(m.is_zero(), f"{sub} n={n} j={j}", m, 0)
        fam.close(sub)

        fam = rep.family("cod.reduced.boundary")
        for n, lv in enumerate(self.levels):
            # read_n . iota_n is T proj_w[n]
            induced = gmap_compose(self.read_n[n], gmap_compose(
                self.iota(n), gmap_compose(boundary_gmap(calc.pow[n + 1]),
                                           calc.T(calc.incl_w[n]))))
            want = boundary_gmap(lv)
            fam.check(induced == want, f"{sub} n={n}", induced, want)
        fam.close(sub)

        for n in range(self.L + 1):
            got = graded_differential(self.iota(n))
            if n == 0:
                rep.record("cod.iota.diff", f"{sub} n=0", got.is_zero(),
                           got, 0)
            else:
                want = gmap_compose(self.iota(n - 1), calc.facesum(n + 1))
                rep.eq("cod.iota.diff", f"{sub} n={n}", got, want)

        for n in range(self.L + 1):
            lhs = gmap_compose(self.abar, calc.T(self.iota(n)))
            rhs = gmap_compose(self.iota(n), calc.face(n + 2, 0))
            rep.eq("cod.algebra.defining", f"{sub} n={n}", lhs, rhs)
        rep.record("cod.algebra.chain", sub, *chain_sides(self.abar))
        rep.eq("cod.algebra.unit", sub,
               gmap_compose(self.abar, unit_insert(calc.alg, self.total)),
               id_gmap(self.total))
        rep.eq("cod.algebra.assoc", sub,
               gmap_compose(self.abar, calc.T(self.abar)),
               gmap_compose(self.abar, calc.mu_on(self.total)))

        rep.record("cod.p.chain", sub, *chain_sides(self.p))
        rep.eq("cod.p.strict", sub,
               *calc.strict_sides(self.p, self.abar, calc.mod.act))
        rep.record("cod.q.chain", sub, *chain_sides(self.q))
        return rep

    def as_module(self) -> DgModule:
        """|X| with its algebra structure, as a module."""
        return DgModule(self.calc.alg, self.total, self.abar,
                        name=f"Q({self.calc.mod.name})")


def bar_lali(t: TruncatedCodescent,
             report: CheckReport = None):
    """The contraction (p, q, xi) of |X| onto M as a homological lali.

    Every defining equation is exact except the homotopy identity at
    level L, which is reported TRUNCATION-EXEMPT; pxi, xiq and xixi hold
    on the nose at all levels because xi vanishes on the top level.
    """
    rep = report if report is not None else CheckReport()
    calc = t.calc
    sub = f"{calc.alg.name}/{calc.mod.name}"
    mcx = calc.mod.cx
    lali = HomologicalLali(t.p, t.q, t.xi)

    rep.record("lali.p.chain", sub, *chain_sides(t.p))
    rep.record("lali.q.chain", sub, *chain_sides(t.q))
    rep.eq("lali.section", sub, gmap_compose(t.p, t.q), id_gmap(mcx))
    rep.eq("lali.pxi", sub, gmap_compose(t.p, t.xi),
           zero_gmap(t.total, mcx, 1))
    rep.eq("lali.xiq", sub, gmap_compose(t.xi, t.q),
           zero_gmap(mcx, t.total, 1))
    rep.eq("lali.xixi", sub, gmap_compose(t.xi, t.xi),
           zero_gmap(t.total, t.total, 2))
    t.eq_below_top(rep, "lali.homotopy", sub, graded_differential(t.xi),
                   gmap_sub(id_gmap(t.total), gmap_compose(t.q, t.p)))
    rep.eq("lali.p.strict", sub,
           *calc.strict_sides(t.p, t.abar, calc.mod.act))
    return lali, rep


def degeneracy_image_dims(calc: BarCalculus, n: int):
    """Dimensions of the degenerate subspace of level n of the bar
    object, found by ranking the stacked images of the simplicial
    degeneracies s_0..s_{n-1} (the contraction s_{-1} is extra structure
    and its image is not quotiented).  Independent of the unit-splitting
    layout, so it cross-checks the reduced pieces."""
    x = calc.pow[n + 1]
    out = {}
    for k in x.degrees():
        w = calc.pow[n].dim(k)
        out[k] = rank(assemble(x.dim(k), n * w,
                               [(calc.degen(n, j).block(k), 0, j * w)
                                for j in range(n)]))
    return out


def normalized_level_dims(t: TruncatedCodescent, report: CheckReport = None):
    """Per-level table of dim N(X_n) with the quotient computed two ways:
    full-power dimension minus degenerate rank, against the constructed
    A (x) Abar^{(x)n} (x) M blocks.  Returns (table, report)."""
    rep = report if report is not None else CheckReport()
    table = []
    for n in range(t.L + 1):
        x = t.calc.pow[n + 1]
        degen = degeneracy_image_dims(t.calc, n)
        dims = {k: x.dim(k) - degen.get(k, 0) for k in x.degrees()}
        dims = {k: v for k, v in dims.items() if v}
        table.append(dims)
        rep.eq("bar.normalized.dims", f"level={n}", dims, t.levels[n].dims)
    return table, rep


# ---------------------------------------------------------------------------
# A reusable acyclic fibration


def thickened_lali(mod: DgModule, twist: GradedMap = None):
    """A lali (g, f0, eps0) : B -> M with B = M (x) D for the contractible
    complex D = ground (+) disk, acting through the M slot.

    With no twist the contraction is itself equivariant and every forced
    higher component of the coherent lift vanishes.  Passing a chain
    endomap `twist` of M perturbs f0 by the cycle twist (x) e1 (killed
    by g, so the lali equations survive) and corrects eps0 accordingly;
    a non-equivariant twist makes the staged recursions genuinely
    nonzero.  Returns (modB, g, f0, eps0).
    """
    alg = mod.alg
    disk = ChainComplex({0: 2, 1: 1}, {1: mat([[0], [1]])})
    uc = unit_complex()
    gd = GradedMap(disk, uc, 0, {0: mat([[1, 0]])})
    qd = GradedMap(uc, disk, 0, {0: mat([[1], [0]])})
    xid = GradedMap(disk, disk, 1, {0: mat([[0, 1]])})
    e1 = GradedMap(uc, disk, 0, {0: mat([[0], [1]])})
    act = gmap_compose(tensor_map(mod.act, id_gmap(disk)),
                       signed_perm_inverse(assoc_iso(alg.cx, mod.cx, disk)))
    modB = DgModule(alg, act.dst, act, name="thick")
    runi = runit_iso(mod.cx)
    rinv = signed_perm_inverse(runi)
    g = gmap_compose(runi, tensor_map(id_gmap(mod.cx), gd))
    f0 = gmap_compose(tensor_map(id_gmap(mod.cx), qd), rinv)
    eps0 = tensor_map(id_gmap(mod.cx), xid)
    if twist is not None:
        if twist.src != mod.cx or twist.dst != mod.cx or twist.deg != 0:
            raise BarError("twist must be a degree-0 endomap of the module")
        n = gmap_compose(tensor_map(twist, e1), rinv)
        f0 = gmap_add(f0, n)
        eps0 = gmap_sub(eps0, gmap_compose(eps0, gmap_compose(n, g)))
    return modB, g, f0, eps0


def nonequivariant_twist(alg: DgAlgebra) -> GradedMap:
    """The chain endomap unit . pivot of A; fails equivariance as soon
    as Abar acts nontrivially, e.g. for the dual numbers."""
    return gmap_compose(alg.unit, alg.pivot)


# ---------------------------------------------------------------------------
# Homotopy-coherent maps


class WeakHomElement:
    """Degree-i coherent map M ~> N with reduced components.

    comps[n] lives on Abar^{(x)n} (x) M in degree n+i, and the calculus
    computes on these alone; rung(n, p) keeps the ladder T-bar^p comps[n],
    each rung built once as T-bar of the rung below.
    """

    def __init__(self, src: DgModule, dst: DgModule, deg: int, L: int,
                 comps):
        comps = tuple(comps)
        if len(comps) != L + 1:
            raise BarError(f"expected {L + 1} components, got {len(comps)}")
        calc = src.calculus(L)
        for n, c in enumerate(comps):
            if (c.src != calc.barpow[n] or c.dst != dst.cx
                    or c.deg != n + deg):
                raise BarError(f"component {n} has the wrong type")
        self.src = src
        self.dst = dst
        self.deg = deg
        self.L = L
        self.comps = comps
        self._calc = calc
        self._rungs = tuple([c] for c in comps)

    def rung(self, n: int, p: int) -> GradedMap:
        """T-bar^p of component n, on Abar^{(x)n+p} (x) M."""
        rungs = self._rungs[n]
        while len(rungs) <= p:
            rungs.append(self._calc.Tbar(rungs[-1]))
        return rungs[p]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __eq__(self, other):
        return (isinstance(other, WeakHomElement)
                and self.src == other.src and self.dst == other.dst
                and self.deg == other.deg and self.L == other.L
                and self.comps == other.comps)

    def __repr__(self):
        """Live levels with their entries, so failing sides differ."""
        live = ", ".join(f"{n}: {c!r}" for n, c in enumerate(self.comps)
                         if not c.is_zero())
        return f"WeakHom(deg={self.deg}, L={self.L}, {{{live}}})"


def weak_zero(src: DgModule, dst: DgModule, deg: int, L: int):
    calc = src.calculus(L)
    return WeakHomElement(src, dst, deg, L,
                          [zero_gmap(calc.barpow[n], dst.cx, n + deg)
                           for n in range(L + 1)])


def weak_identity(mod: DgModule, L: int) -> WeakHomElement:
    return weak_from_strict(id_gmap(mod.cx), mod, mod, L)


def weak_from_strict(u: GradedMap, src: DgModule, dst: DgModule,
                     L: int) -> WeakHomElement:
    """The inclusion of strict maps: components (u, 0, 0, ...)."""
    if u.src != src.cx or u.dst != dst.cx:
        raise BarError("strict map endpoints do not match the modules")
    z = weak_zero(src, dst, u.deg, L)
    return WeakHomElement(src, dst, u.deg, L, (u,) + z.comps[1:])


def weak_forget(f: WeakHomElement) -> GradedMap:
    """The underlying map in complexes: the level-0 component."""
    return f.comps[0]


def _same_shape(f: WeakHomElement, g: WeakHomElement):
    if (f.src != g.src or f.dst != g.dst or f.deg != g.deg or f.L != g.L):
        raise BarError("weak maps have different shapes")


def weak_add(f: WeakHomElement, g: WeakHomElement) -> WeakHomElement:
    _same_shape(f, g)
    return WeakHomElement(f.src, f.dst, f.deg, f.L,
                          [gmap_add(a, b) for a, b in zip(f.comps, g.comps)])


def weak_sub(f: WeakHomElement, g: WeakHomElement) -> WeakHomElement:
    return weak_add(f, weak_smul(-1, g))


def weak_smul(c, f: WeakHomElement) -> WeakHomElement:
    return WeakHomElement(f.src, f.dst, f.deg, f.L,
                          [gmap_smul(c, a) for a in f.comps])


def weak_differential(f: WeakHomElement) -> WeakHomElement:
    """Componentwise differential of the coherent mapping complex,
    (df)_n = D f_n + s (f_{n-1} . ebar_n - ebar_1 . T-bar f_{n-1}) with
    s = (-1)^deg, ebar_n the source's and ebar_1 the target's.  Only
    levels n and n-1 are read, so truncation is exact."""
    calc = f._calc
    sign = -1 if f.deg % 2 else 1
    comps = []
    for n, c in enumerate(f.comps):
        out = graded_differential(c)
        if n >= 1:
            out = gmap_add(out, gmap_smul(sign, gmap_sub(
                gmap_compose(f.comps[n - 1], calc.ebar(n)),
                gmap_compose(f.dst.ebar1, f.rung(n - 1, 1)))))
        comps.append(out)
    return WeakHomElement(f.src, f.dst, f.deg - 1, f.L, comps)


def weak_compose(g: WeakHomElement, f: WeakHomElement) -> WeakHomElement:
    """(g . f)_n = sum_{p+q=n} g_p . T-bar^p f_q with the Koszul sign
    (-1)^{p deg f} from moving f past p tensor slots."""
    if f.dst != g.src:
        raise BarError("weak maps are not composable")
    if f.L != g.L:
        raise BarError("weak maps have different truncation levels")
    calc = f._calc
    comps = []
    for n in range(f.L + 1):
        out = zero_gmap(calc.barpow[n], g.dst.cx, n + f.deg + g.deg)
        for p in range(n + 1):
            term = gmap_compose(g.comps[p], f.rung(n - p, p))
            if (p * f.deg) % 2:
                term = gmap_smul(-1, term)
            out = gmap_add(out, term)
        comps.append(out)
    return WeakHomElement(f.src, g.dst, f.deg + g.deg, f.L, comps)


def random_weak(rng, src: DgModule, dst: DgModule, deg: int,
                L: int) -> WeakHomElement:
    """Uniformly junky components; any family is a valid coherent map."""
    calc = src.calculus(L)
    return WeakHomElement(src, dst, deg, L,
                          [random_gmap(rng, calc.barpow[n], dst.cx, n + deg)
                           for n in range(L + 1)])


# ---------------------------------------------------------------------------
# Lifting a lali of complexes to the coherent world


def lift_ulali(modB: DgModule, modA: DgModule, g: GradedMap, f0: GradedMap,
               eps0: GradedMap, L: int, report: CheckReport = None):
    """Promote a lali (g, f0, eps0) : B -> A in complexes, with g a
    strict module map, to a lali in the coherent category.

    Components are forced: f_n = eps0 . ebar_1 . T-bar f_{n-1} and
    eps_n = -eps0 . ebar_1 . T-bar eps_{n-1}, with ebar_1 of B.  Returns
    (f, eps, report) where f lifts f0 against Jg and eps contracts B onto
    the image; f and eps are None when a forced component fails to vanish
    on the unit insertions (`lift.reduced`: eps0 . c_{n-1} != 0).
    """
    rep = report if report is not None else CheckReport()
    sub = f"{modB.name}->{modA.name}"
    calcB = modB.calculus(L)
    HomologicalLali(g, f0, eps0).validate(rep)
    rep.eq("lift.g.strict", sub, *calcB.strict_sides(g, modB.act, modA.act))

    comps = {"f": [f0], "eps": [eps0]}
    for _ in range(L):
        for nm, cs in comps.items():
            c = gmap_compose(eps0, gmap_compose(modB.ebar1,
                                                calcB.Tbar(cs[-1])))
            cs.append(c if nm == "f" else gmap_smul(-1, c))
    after = {nm: [gmap_compose(eps0, c) for c in cs]
             for nm, cs in comps.items()}
    # FAIL lines only; none are added if the side condition holds
    fam = rep.family("lift.reduced")
    for nm, ms in after.items():
        for n in range(1, L + 1):
            fam.check(ms[n - 1].is_zero(), f"{sub} {nm}_{n}", ms[n - 1], 0)
    if fam.failed:
        fam.close(sub)
        return None, None, rep
    f = WeakHomElement(modA, modB, 0, L, comps["f"])
    eps = WeakHomElement(modB, modB, 1, L, comps["eps"])

    jg = weak_from_strict(g, modB, modA, L)
    rep.eq("lift.forget", sub, (weak_forget(f), weak_forget(eps)), (f0, eps0))
    rep.eq("lift.retract", sub, weak_compose(jg, f), weak_identity(modA, L))
    rep.eq("lift.homotopy", sub, weak_differential(eps),
           weak_sub(weak_identity(modB, L), weak_compose(f, jg)))
    rep.eq("lift.g_eps", sub, weak_compose(jg, eps),
           weak_zero(modB, modA, 1, L))
    rep.eq("lift.eps_f", sub, weak_compose(eps, f),
           weak_zero(modA, modB, 1, L))
    rep.eq("lift.eps_eps", sub, weak_compose(eps, eps),
           weak_zero(modB, modB, 2, L))
    side = [f"{nm}_{n}" for nm, ms in after.items()
            for n, m in enumerate(ms) if not m.is_zero()]
    rep.record("lift.side", sub, not side, f"eps0 nonzero after {side}",
               "eps0 zero after every f_n and eps_n")
    return f, eps, rep


def free_ulali_factor(t: TruncatedCodescent, modB: DgModule, g: GradedMap,
                      f0: GradedMap, eps0: GradedMap,
                      report: CheckReport = None):
    """Strict comparison h : |X| -> B out of the resolution, for a lali
    (g, f0, eps0) : B -> M in complexes with g a strict module map.

    h acts on level n of |X| by the forced stages k_0 = act . T f0 and
    k_n = act . T(eps0 . k_{n-1} . ups[n-1]); `factor.reduced` asks that
    eps0 . k_{n-1} vanish on the unit insertion.  The report also covers
    the chain and module-map properties, the three lali comparisons
    (eps0.h = h.xi only below level L, exempt at L) and a uniqueness
    re-derivation of every stage from the assembled map.
    """
    rep = report if report is not None else CheckReport()
    calc = t.calc
    modM = calc.mod
    L = t.L
    sub = f"{modB.name}->{modM.name}"
    HomologicalLali(g, f0, eps0).validate(rep)
    rep.eq("factor.g.strict", sub, *calc.strict_sides(g, modB.act, modM.act))

    def forced(n, prev):  # stage n of h, given stage n-1 (f0 for n = 0)
        if n:
            prev = gmap_compose(eps0, gmap_compose(prev, calc.ups[n - 1]))
        return gmap_compose(modB.act, calc.T(prev))

    ks = [forced(0, f0)]
    for n in range(1, L + 1):
        ks.append(forced(n, ks[-1]))

    fam = rep.family("factor.reduced")
    for n in range(1, L + 1):
        m = gmap_compose(eps0, gmap_compose(
            ks[n - 1], unit_insert(calc.alg, calc.barpow[n - 1])))
        fam.check(m.is_zero(), f"{sub} n={n}", m, 0)
    fam.close(sub)

    h = t.glue(ks)

    rep.record("factor.chain", sub, *chain_sides(h))
    rep.eq("factor.strict", sub, *calc.strict_sides(h, t.abar, modB.act))
    rep.eq("factor.gh", sub, gmap_compose(g, h), t.p)
    rep.eq("factor.hq", sub, gmap_compose(h, t.q), f0)
    t.eq_below_top(rep, "factor.eps_h", sub, gmap_compose(eps0, h),
                   gmap_compose(h, t.xi))

    # uniqueness: any strict chain module map with gh = p, hq = f0 and
    # eps0.h = h.xi restricts on stages to maps obeying the forcing
    # equalities below, so agreeing with them pins h down
    stages = [gmap_compose(h, t.tag_n[n]) for n in range(L + 1)]
    rep.eq("factor.unique", sub, stages,
           [forced(n, stages[n - 1] if n else f0) for n in range(L + 1)])
    return h, rep


# ---------------------------------------------------------------------------
# Strict maps versus coherent maps out of the resolution


def strict_to_weak(t: TruncatedCodescent, u: GradedMap,
                   dst: DgModule) -> WeakHomElement:
    """Precompose a strict map |X| -> N with the coherent unit, whose
    component n inserts the unit into level n."""
    if u.src != t.total or u.dst != dst.cx:
        raise BarError("strict map endpoints do not match")
    calc = t.calc
    comps = [gmap_compose(u, gmap_compose(t.tag_n[n], unit_insert(calc.alg, y)))
             for n, y in enumerate(calc.barpow[:t.L + 1])]
    return WeakHomElement(calc.mod, dst, u.deg, t.L, comps)


def weak_to_strict(t: TruncatedCodescent,
                   f: WeakHomElement) -> GradedMap:
    """Extend a chain-closed degree-0 coherent map M ~> N to the strict
    map |X| -> N acting by act . T f_n on level n."""
    if f.deg != 0:
        raise BarError("only degree-0 coherent maps extend to strict ones")
    if f.src != t.calc.mod:
        raise BarError("coherent map does not start at the resolved module")
    if not weak_differential(f).is_zero():
        raise BarError("coherent map is not chain-closed")
    return t.glue([gmap_compose(f.dst.act, t.calc.T(c)) for c in f.comps])

