"""Chain complexes over the rationals with exact arithmetic.

Complexes have finite support; a graded map of degree n is a family of
matrix blocks X_k -> Y_{k+n}, stored only where both ends are nonzero
and the block is not zero.  An absent block or boundary is zero, and no
operation builds one: composites, sums, tensor maps and the tensor
boundary walk the stored blocks only.  `block()` and `boundary()` give
a zero matrix of the right shape for an absent one.  Every linear
combination of graded maps, a composite and the differential included,
is one `gmap_sum`: one `ratmat.msum` per source degree, one GradedMap.

The differential of a map is the graded commutator

    (Df)_k = d_Y . f_k  -  (-1)^n  f_{k-1} . d_X

so chain maps are the degree-0 cycles.  Tensor products order each
graded piece by ascending left degree, blocks laid out i-major; the one
table `off[p, q]` of X (x) Y holds the offset of X_p (x) Y_q in degree
p+q.  The sign conventions put the twist on the left factor's degree:

    d(x (x) y)     = dx (x) y + (-1)^|x| x (x) dy
    (f (x) g)(x,y) = (-1)^{|g||x|} f x (x) g y

A homological lali is a chain map g with strict section q and a
degree 1 homotopy xi collapsing its domain onto the section, subject to
g.xi = xi.q = xi.xi = 0.
"""

from __future__ import annotations

import functools

from . import InputError
from .ratmat import (assemble, eye, is_zero, mat, mmul, msum, nonzeros,
                     rank, shape, transpose, zeros)
from .report import CheckReport


class DgError(InputError):
    pass


class ChainComplex:
    """dims: degree -> dimension; d: degree k -> matrix C_k -> C_{k-1}.
    Never changed after construction, so its hash is taken once.  The
    constructor checks shapes only: d.d = 0 is checked by the loader and
    by the tensor product, so the reduced part of an algebra whose unit
    is not a cycle can be built and its algebra reported."""

    def __init__(self, dims, d):
        self.dims = {k: n for k, n in dims.items() if n}
        self.d = {}
        for k, m in d.items():
            if self.dim(k) and self.dim(k - 1) and not is_zero(m):
                if shape(m) != (self.dim(k - 1), self.dim(k)):
                    raise DgError(f"boundary at degree {k} has the wrong shape")
                self.d[k] = m
        self._hash = hash((tuple(sorted(self.dims.items())),
                           tuple(sorted(self.d.items()))))

    def check_square_zero(self):
        for k in self.d:
            if k - 1 in self.d and not is_zero(mmul(self.d[k - 1], self.d[k])):
                raise DgError(f"d.d != 0 out of degree {k}")

    def dim(self, k) -> int:
        return self.dims.get(k, 0)

    def boundary(self, k):
        return self.d[k] if k in self.d else zeros(self.dim(k - 1), self.dim(k))

    def degrees(self):
        return sorted(self.dims)

    def __eq__(self, other):
        return self is other or (isinstance(other, ChainComplex) and (
            self.dims, self.d) == (other.dims, other.d))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        ds = ",".join(f"{k}:{n}" for k, n in sorted(self.dims.items()))
        return f"Complex[{ds}]"


def unit_complex() -> ChainComplex:
    return ChainComplex({0: 1}, {})


class GradedMap:
    """Degree-homogeneous map between complexes, blockwise."""

    def __init__(self, src: ChainComplex, dst: ChainComplex, deg: int, mats):
        self.src = src
        self.dst = dst
        self.deg = deg
        self.mats = {}
        for k, m in mats.items():
            if src.dim(k) and dst.dim(k + deg) and not is_zero(m):
                if shape(m) != (dst.dim(k + deg), src.dim(k)):
                    raise DgError(f"block at degree {k} has the wrong shape")
                self.mats[k] = m

    def block(self, k):
        if k in self.mats:
            return self.mats[k]
        return zeros(self.dst.dim(k + self.deg), self.src.dim(k))

    def is_zero(self):
        return not self.mats

    def __eq__(self, other):
        return (isinstance(other, GradedMap)
                and self.src == other.src and self.dst == other.dst
                and self.deg == other.deg and self.mats == other.mats)

    def __repr__(self):
        """Degree and nonzero entries: {k: (i,j)=v ...} per source degree k,
        so the two sides of a failing equation print differently."""
        blocks = "; ".join(f"{k}: {nonzeros(m)}"
                           for k, m in sorted(self.mats.items()))
        return f"GradedMap(deg={self.deg}, {{{blocks}}})"


def zero_gmap(src, dst, deg=0) -> GradedMap:
    return GradedMap(src, dst, deg, {})


def id_gmap(x: ChainComplex) -> GradedMap:
    return GradedMap(x, x, 0, {k: eye(n) for k, n in x.dims.items()})


def gmap_sum(src: ChainComplex, dst: ChainComplex, deg: int,
             terms) -> GradedMap:
    """sum c * (g . f) over the terms (c, g, f), and c * f over the terms
    (c, f), each a map src -> dst of degree deg: one msum per source
    degree, fed no block of f whose g stores none at its target."""
    parts = {}
    for t in terms:
        c, g, f = t if len(t) == 3 else (t[0], None, t[1])
        if g is not None and g.src != f.dst:
            raise DgError("graded maps are not composable")
        ends = (f.dst, f.deg) if g is None else (g.dst, f.deg + g.deg)
        if (f.src, *ends) != (src, dst, deg):
            raise DgError("graded maps are not addable")
        for k, fk in f.mats.items():
            a = fk if g is None else g.mats.get(k + f.deg)
            if a is not None:
                parts.setdefault(k, []).append(
                    (c, a, eye(src.dims[k]) if g is None else fk))
    return GradedMap(src, dst, deg, {k: msum(dst.dim(k + deg), src.dims[k], ts)
                                     for k, ts in parts.items()})


def gmap_compose(g: GradedMap, f: GradedMap) -> GradedMap:
    return gmap_sum(f.src, g.dst, f.deg + g.deg, ((1, g, f),))


def boundary_gmap(x: ChainComplex) -> GradedMap:
    return GradedMap(x, x, -1, dict(x.d))


def differential_terms(f: GradedMap) -> list:
    """The two terms of Df = d.f - (-1)^deg f.d, for gmap_sum."""
    return [(1, boundary_gmap(f.dst), f),
            (1 if f.deg % 2 else -1, f, boundary_gmap(f.src))]


def graded_differential(f: GradedMap) -> GradedMap:
    """Df = d.f - (-1)^deg f.d, degree deg-1."""
    return gmap_sum(f.src, f.dst, f.deg - 1, differential_terms(f))


def chain_sides(f: GradedMap) -> tuple[bool, str, str]:
    """(f is a chain map, lhs, rhs) for a report line.  Df is computed
    once; the sides `deg=.. D=..` / `deg=0 D=0` are formatted only when f
    is not a chain map."""
    df = graded_differential(f)
    if f.deg == 0 and df.is_zero():
        return True, "", ""
    return False, f"deg={f.deg} D={df!r}", "deg=0 D=0"


def is_chain_map(f: GradedMap) -> bool:
    return chain_sides(f)[0]


# ---------------------------------------------------------------------------
# Tensor structure


class TensorComplex(ChainComplex):
    """Binary tensor; off[p, q] is the offset of the block X_p (x) Y_q in
    degree p+q, the blocks of a degree in ascending left degree."""

    def __init__(self, x: ChainComplex, y: ChainComplex):
        self.off = {}
        dims = {}
        for p, xd in sorted(x.dims.items()):
            for q, yd in sorted(y.dims.items()):
                self.off[p, q] = dims.get(p + q, 0)
                dims[p + q] = self.off[p, q] + xd * yd
        # d(x (x) y) = dx (x) y + (-1)^p x (x) dy, one term per stored d
        terms = {}
        for (p, q), col in self.off.items():
            if p in x.d:
                terms.setdefault(p + q, []).append(
                    (x.d[p], self.off[p - 1, q], col, 1, eye(y.dims[q])))
            if q in y.d:
                terms.setdefault(p + q, []).append(
                    (eye(x.dims[p]), self.off[p, q - 1], col,
                     -1 if p % 2 else 1, y.d[q]))
        super().__init__(dims, {n: assemble(dims[n - 1], dims[n], ts)
                                for n, ts in terms.items()})
        self.check_square_zero()


@functools.cache
def tensor_complex(x: ChainComplex, y: ChainComplex) -> TensorComplex:
    """X (x) Y, built once per pair of factors and kept for the life of
    the process.  Complexes hash and compare structurally, so equal
    factors give the same object; tensor maps and coherence isos read
    their endpoints here."""
    return TensorComplex(x, y)


def tensor_map(f: GradedMap, g: GradedMap) -> GradedMap:
    """f (x) g with the Koszul sign (-1)^{deg g * left degree}."""
    src = tensor_complex(f.src, g.src)
    dst = tensor_complex(f.dst, g.dst)
    deg = f.deg + g.deg
    terms = {}
    for p, fp in f.mats.items():
        for q, gq in g.mats.items():
            terms.setdefault(p + q, []).append(
                (fp, dst.off[p + f.deg, q + g.deg], src.off[p, q],
                 -1 if (g.deg * p) % 2 else 1, gq))
    return GradedMap(src, dst, deg,
                     {n: assemble(dst.dims[n + deg], src.dims[n], ts)
                      for n, ts in terms.items()})


def assoc_iso(x, y, z) -> GradedMap:
    """(X (x) Y) (x) Z -> X (x) (Y (x) Z), a signless basis bijection.

    For fixed i in X_p, the basis elements (j, k) of Y_q (x) Z_r are
    contiguous and in the same order on both sides, so each i places one
    identity block of size |Y_q|*|Z_r|.
    """
    xy = tensor_complex(x, y)
    src = tensor_complex(xy, z)
    yz = tensor_complex(y, z)
    dst = tensor_complex(x, yz)
    terms = {}
    for (p, q), xy_off in xy.off.items():
        xd, yd = x.dims[p], y.dims[q]
        for r, zd in z.dims.items():
            row0 = dst.off[p, q + r] + yz.off[q, r]
            col0 = src.off[p + q, r] + xy_off * zd
            one = eye(yd * zd)
            terms.setdefault(p + q + r, []).extend(
                (one, row0 + i * yz.dims[q + r], col0 + i * yd * zd)
                for i in range(xd))
    return GradedMap(src, dst, 0, {n: assemble(dst.dims[n], src.dims[n], ts)
                                   for n, ts in terms.items()})


def lunit_iso(x: ChainComplex) -> GradedMap:
    """I (x) X -> X."""
    return GradedMap(tensor_complex(unit_complex(), x), x, 0, id_gmap(x).mats)


def runit_iso(x: ChainComplex) -> GradedMap:
    """X (x) I -> X."""
    return GradedMap(tensor_complex(x, unit_complex()), x, 0, id_gmap(x).mats)


def signed_perm_inverse(f: GradedMap) -> GradedMap:
    """The blockwise transpose of a degree-0 map: the inverse of a signed
    permutation."""
    if f.deg != 0:
        raise DgError("only degree-0 isos are inverted blockwise")
    return GradedMap(f.dst, f.src, 0,
                     {k: transpose(m) for k, m in f.mats.items()})


# ---------------------------------------------------------------------------
# Homological lalis


class HomologicalLali:
    """g: A -> B with section q and contracting homotopy xi on A."""

    def __init__(self, g: GradedMap, q: GradedMap, xi: GradedMap):
        self.g = g
        self.q = q
        self.xi = xi

    def validate(self, report=None) -> CheckReport:
        rep = report if report is not None else CheckReport()
        g, q, xi = self.g, self.q, self.xi
        sub = f"{g.src!r}->{g.dst!r}"
        if not rep.eq("lali.shape", sub,
                      (g.deg, q.src, q.dst, q.deg, xi.src, xi.dst, xi.deg),
                      (0, g.dst, g.src, 0, g.src, g.src, 1)):
            return rep
        rep.record("lali.g.chain", sub, *chain_sides(g))
        rep.record("lali.q.chain", sub, *chain_sides(q))
        rep.eq("lali.section", sub, gmap_compose(g, q), id_gmap(g.dst))
        want = gmap_sum(g.src, g.src, 0, [(1, id_gmap(g.src)), (-1, q, g)])
        rep.eq("lali.homotopy", sub, graded_differential(xi), want)
        rep.eq("lali.gxi", sub, gmap_compose(g, xi), zero_gmap(g.src, g.dst, 1))
        rep.eq("lali.xiq", sub, gmap_compose(xi, q), zero_gmap(q.src, g.src, 1))
        rep.eq("lali.xixi", sub, gmap_compose(xi, xi), zero_gmap(g.src, g.src, 2))
        return rep


# ---------------------------------------------------------------------------
# Homology


def homology_ranks(x: ChainComplex, degrees):
    """Betti numbers dim ker - dim im in `degrees`, by exact rank."""
    return {k: x.dim(k) - rank(x.boundary(k + 1)) - rank(x.boundary(k))
            for k in degrees}


# ---------------------------------------------------------------------------
# Seeded random maps


def random_gmap(rng, src: ChainComplex, dst: ChainComplex,
                deg=0) -> GradedMap:
    mats = {}
    for k in src.degrees():
        if dst.dim(k + deg):
            mats[k] = mat([[rng.randrange(-3, 4) for _ in range(src.dim(k))]
                           for _ in range(dst.dim(k + deg))])
    return GradedMap(src, dst, deg, mats)
