"""Seeded generators and test-only builders.

No subcommand runs these, so they live with the tests: finite-set
arrows written out by hand, random complexes and lalis drawn from a
seed, and the constructions the tests check against the product code
(the tensor symmetry and the lali calculus).  The seeded instances are
pinned by `test_dg.py::test_seeded_instances_pinned`.
"""

import functools
import random
from fractions import Fraction

from weakmaps.dg import (
    ChainComplex,
    DgError,
    GradedMap,
    HomologicalLali,
    gmap_add,
    gmap_compose,
    id_gmap,
    is_chain_map,
    signed_perm_inverse,
    tensor_complex,
    zero_gmap,
)
from weakmaps.fincat import FinSetArrow
from weakmaps.ratmat import assemble, entries, eye, madd, mat, mmul

# ---------------------------------------------------------------------------
# Instance files

# a dg-algebra file with a nonzero differential: Q.1 + Q.v in degree 0,
# Q.u in degree 1, d u = v, all products of u and v zero; mult columns
# follow the tensor basis (1u, vu | u1, uv) in degree 1
CONE = {
    "complex": {"degrees": {"0": 2, "1": 1}, "boundary": {"1": [[0], [1]]}},
    "unit": {"0": [[1], [0]]},
    "mult": {"0": [[1, 0, 0, 0], [0, 1, 1, 0]], "1": [[1, 0, 1, 0]]},
    "name": "cone",
}

# a dg-algebra file whose reduced part sits in negative degree: Q.1 in
# degree 0, Q.e in degree -1, e.e = 0.  A coherent map over it has live
# components at every level; over the built-ins, whose reduced parts sit
# in degrees >= 0, every component above level 1 vanishes by degree
EXTERIOR_DOWN = {
    "complex": {"degrees": {"-1": 1, "0": 1}},
    "unit": {"0": [[1]]},
    "mult": {"-1": [[1, 1]], "0": [[1]]},
    "name": "exterior_down",
}

# a dg-algebra file whose reduced part multiplies: Q[x]/(x^3) in degree
# 0, basis 1, x, x^2.  x.x = x^2 != 0, so the inner faces d_j, 0 < j < n,
# of the bar levels are nonzero maps; over the built-ins, CONE and
# EXTERIOR_DOWN, Abar.Abar = 0 and every inner face is zero
POLY3 = {
    "complex": {"degrees": {"0": 3}},
    "unit": {"0": [[1], [0], [0]]},
    "mult": {"0": [[1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0, 0, 0, 0],
                   [0, 0, 1, 0, 1, 0, 1, 0, 0]]},
    "name": "poly3",
}

# a lali file whose B is two copies of the free dual-numbers module with
# d = 1; eps0 does not vanish on the unit insertions, so the forced
# coherent component f_1 fails lift.reduced
SIDE_BROKEN_LALI = {
    "module": {"complex": {"degrees": {"0": 2, "1": 2},
                           "boundary": {"1": [[1, 0], [0, 1]]}},
               "action": {"0": [[1, 0, 0, 0], [0, 1, 1, 0]],
                          "1": [[1, 0, 0, 0], [0, 1, 1, 0]]}},
    "g": {"0": [[1, 0], [0, 1]]}, "f0": {"0": [[1, 0], [0, 1]]},
    "eps0": {"0": [[1, 0], [0, 0]]}}


# ---------------------------------------------------------------------------
# Finite sets


def fsarrow(dom, cod, images) -> FinSetArrow:
    """Build an arrow from an explicit mapping (dict or per-element iterable)."""
    dom, cod = tuple(dom), tuple(cod)
    if isinstance(images, dict):
        images = [images[x] for x in dom]
    pos = {y: j for j, y in enumerate(cod)}
    return FinSetArrow(dom, cod, tuple(pos[y] for y in images))


def image(f: FinSetArrow, x):
    """The label f sends the label x to."""
    return f.cod[f.idx[f.dom.index(x)]]


def graph(f: FinSetArrow):
    return tuple((x, f.cod[i]) for x, i in zip(f.dom, f.idx))


# ---------------------------------------------------------------------------
# Corrupted weak-map constructions, patched over `weakmaps.spans`


def kappa_swapped(span_to_kleisli):
    """span_to_kleisli with b0 and b1 swapped in the image of every span
    whose apex has two points."""
    def swapped(wm, s):
        u = span_to_kleisli(wm, s)
        if len(s.apex) != 2:
            return u
        under = FinSetArrow(u.under.dom, u.under.cod,
                            tuple(1 - x for x in u.under.idx))
        return type(u)(u.dom, u.cod, under)
    return swapped


def apex_shifted(kleisli_to_span):
    """kleisli_to_span with the canonical span's apex relabelled by the
    cyclic shift i -> i+1, both legs and the witness moved with it.  The
    result is isomorphic to the canonical span but, when the apex has
    more than one point, no longer the one the section phi maps from."""
    def shifted(wm, f):
        c = kleisli_to_span(wm, f)
        x, n, cat = c.apex, len(c.apex), wm.cat
        back = FinSetArrow(x, x, tuple((i - 1) % n for i in range(n)))
        fwd = FinSetArrow(x, x, tuple((i + 1) % n for i in range(n)))
        left = type(c.left)(c.left.awfs, cat.compose(c.left.arrow, back),
                            cat.compose(fwd, c.left.witness))
        return type(c)(left, cat.compose(c.right, back))
    return shifted


# ---------------------------------------------------------------------------
# Complexes


def total_dim(x: ChainComplex):
    return sum(x.dims.values())


def dense(m):
    """The rows of the matrix `m` written out, zeros included."""
    rows = [[0] * m.cols for _ in m]
    for i, j, v in entries(m):
        rows[i][j] = v
    return tuple(map(tuple, rows))


def inverse(a):
    """Exact inverse of a square matrix: Gauss-Jordan on the dense rows
    of [a | 1], the right half of the result."""
    n = len(a)
    rows = [[Fraction(v) for v in row] + [Fraction(i == j) for j in range(n)]
            for i, row in enumerate(dense(a))]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        rows[c], rows[piv] = rows[piv], rows[c]
        p = rows[c][c]
        rows[c] = [v / p for v in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[c])]
    return mat([row[n:] for row in rows])


def direct_sum(xs):
    """(X_1 + ... + X_n, [inclusion of each X_i]): the summands stacked
    in order in each degree, the boundary block-diagonal.  The projection
    onto a summand is `signed_perm_inverse` of its inclusion."""
    dims, offs = {}, []
    for x in xs:
        offs.append({k: dims.get(k, 0) for k in x.dims})
        for k, n in x.dims.items():
            dims[k] = dims.get(k, 0) + n
    total = ChainComplex(dims, {
        k: assemble(dims.get(k - 1, 0), n, [(x.d[k], off[k - 1], off[k])
                                            for x, off in zip(xs, offs) if k in x.d])
        for k, n in dims.items()})
    incs = [GradedMap(x, total, 0, {k: assemble(dims[k], n, [(eye(n), off[k], 0)])
                                   for k, n in x.dims.items()})
            for x, off in zip(xs, offs)]
    return total, incs


def break_square_zero(x: ChainComplex) -> int:
    """Add 1 at one entry of the top boundary d_k of x that has a
    boundary below it, in place, so that d_{k-1}.d_k != 0; returns k.
    Adding 1 at (i, 0) of d_k adds column i of d_{k-1} to column 0 of the
    product, so the row i picked is one whose column in d_{k-1} is
    nonzero."""
    d = x.d
    k = max(k for k in d if k - 1 in d)
    i = min(j for _, j, _ in entries(d[k - 1]))
    d[k] = madd(d[k], assemble(len(d[k]), d[k].cols, [(eye(1), i, 0)]))
    return k


def symmetry_iso(x: ChainComplex, y: ChainComplex) -> GradedMap:
    """X (x) Y -> Y (x) X with sign (-1)^{pq} on the (p,q) block.

    x_i (x) y_j sits at column off + i*|Y_q| and row base + j*|X_p| + i,
    so the basis vectors with a fixed i map by eye(|Y_q|) (x) e_i.  It is
    a chain map only if the tensor boundary carries the Koszul sign.
    """
    src = tensor_complex(x, y)
    dst = tensor_complex(y, x)
    terms = {}
    for (p, q), off in src.off.items():
        yd = y.dim(q)
        sign = -1 if (p * q) % 2 else 1
        one = eye(yd)
        terms.setdefault(p + q, []).extend(
            (one, dst.off[q, p], off + i * yd, sign,
             assemble(x.dim(p), 1, [(eye(1), i, 0)]))
            for i in range(x.dim(p)))
    return GradedMap(src, dst, 0, {n: assemble(dst.dim(n), src.dim(n), ts)
                                   for n, ts in terms.items()})


# ---------------------------------------------------------------------------
# The lali calculus


class Lali(HomologicalLali):
    """A homological lali g: src -> dst, with its ends named."""

    @property
    def src(self):
        return self.g.src

    @property
    def dst(self):
        return self.g.dst


def compose_lali(outer: Lali, inner: Lali) -> Lali:
    """Composite B->C after A->B: section composes backwards and the
    homotopies add after conjugating the outer one into A."""
    if inner.dst != outer.src:
        raise DgError("lalis are not composable")
    g = gmap_compose(outer.g, inner.g)
    q = gmap_compose(inner.q, outer.q)
    xi = gmap_add(inner.xi,
                  gmap_compose(inner.q, gmap_compose(outer.xi, inner.g)))
    return Lali(g, q, xi)


def identity_lali(x: ChainComplex) -> Lali:
    one = id_gmap(x)
    return Lali(one, one, zero_gmap(x, x, 1))


def lali_morphism_ok(u: GradedMap, v: GradedMap, a: Lali, b: Lali) -> bool:
    """(u: srcA -> srcB, v: dstA -> dstB) commutes with g, q and xi."""
    return (is_chain_map(u) and is_chain_map(v)
            and gmap_compose(b.g, u) == gmap_compose(v, a.g)
            and gmap_compose(u, a.q) == gmap_compose(b.q, v)
            and gmap_compose(u, a.xi) == gmap_compose(b.xi, u))


# ---------------------------------------------------------------------------
# Seeded random instances (direct sums of cells, conjugated)


def _unimodular(rng: random.Random, n):
    """A product of at most 2n random elementary matrices 1 + c e_ij."""
    m = eye(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        m = mmul(assemble(n, n, [(eye(n), 0, 0), (mat([[c]]), i, j)]), m)
    return m


def _conjugate(rng: random.Random, x: ChainComplex):
    """x transported along a seeded unimodular change of basis u, one
    per degree: returns (y, u: x -> y, u^-1: y -> x)."""
    u = {k: _unimodular(rng, n) for k, n in x.dims.items()}
    uinv = {k: inverse(m) for k, m in u.items()}
    y = ChainComplex(x.dims, {k: mmul(u[k - 1], mmul(m, uinv[k]))
                              for k, m in x.d.items()})
    return y, GradedMap(x, y, 0, u), GradedMap(y, x, 0, uinv)


def random_complex(rng: random.Random, max_deg=3, max_cells=4) -> ChainComplex:
    """Direct sum of spheres and disks in degrees <= max_deg, conjugated
    by unimodular changes of basis so the matrices look arbitrary while
    d.d = 0 holds by construction."""
    cells = []  # (degree, is a disk)
    for _ in range(rng.randrange(1, max_cells + 1)):
        k = rng.randrange(0, max_deg + 1)
        cells.append((k, rng.random() >= 0.5))
    # disk boundaries are drawn degree by degree, in order of first use
    draws = {k: iter([rng.choice([1, -1, 2]) for j, disk in cells if disk and j == k])
             for k in dict.fromkeys(k for k, disk in cells if disk)}
    parts = [ChainComplex({k: 1, k - 1: 1}, {k: mat([[next(draws[k])]])}) if disk
             else ChainComplex({k: 1}, {}) for k, disk in cells]
    return _conjugate(rng, direct_sum(parts)[0])[0]


def random_lali(rng: random.Random, max_deg=3, base: ChainComplex = None) -> Lali:
    """B plus contractible disk summands, then a change of basis on the
    total space; the structure maps are transported along it."""
    b = base if base is not None else random_complex(rng, max_deg)
    disks = [rng.randrange(0, max_deg + 1) for _ in range(rng.randrange(1, 3))]
    cells = [ChainComplex({k: 1, k - 1: 1}, {k: mat([[1]])}) for k in disks]
    a, (q, *incs) = direct_sum([b, *cells])
    g = signed_perm_inverse(q)
    xi = functools.reduce(gmap_add, (
        gmap_compose(i, gmap_compose(GradedMap(c, c, 1, {k - 1: mat([[1]])}),
                                     signed_perm_inverse(i)))
        for i, c, k in zip(incs, cells, disks)))
    _, u, uinv = _conjugate(rng, a)
    return Lali(gmap_compose(g, uinv), gmap_compose(u, q),
                gmap_compose(u, gmap_compose(xi, uinv)))
