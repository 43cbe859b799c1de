"""The graded layer against its block-by-block reference.

A graded map stores only its nonzero blocks, and composition, sums,
tensor maps and the tensor boundary walk only those.  The reference
here reads every block densely, through `block()` and `boundary()`, on a
tensor layout re-derived from the factors: the formulas the layer used
before it skipped absent blocks.  Both must agree on seeded random maps
whose blocks are dropped at random, over the complexes of every built-in
algebra and of the CONE and EXTERIOR_DOWN fixtures.
"""

import random

import pytest

import weakmaps.bar
import weakmaps.dg
from weakmaps.bar import builtin_algebra, builtin_module
from weakmaps.cli import main
from weakmaps.dg import (
    ChainComplex,
    GradedMap,
    assoc_iso,
    gmap_add,
    gmap_compose,
    random_gmap,
    tensor_complex,
    tensor_map,
    unit_complex,
)
from weakmaps.ratmat import assemble, eye, is_zero, madd, mmul
from weakmaps.schemas import load_algebra

from generators import CONE, EXTERIOR_DOWN, random_complex

# ---------------------------------------------------------------------------
# The dense reference


def dense_layout(x, y):
    """{n: [(p, q, offset, |X_p|, |Y_q|)]} in ascending left degree, and
    the dimensions of X (x) Y."""
    layout, dims = {}, {}
    for p in x.degrees():
        for q in y.degrees():
            n = p + q
            off = dims.get(n, 0)
            layout.setdefault(n, []).append((p, q, off, x.dim(p), y.dim(q)))
            dims[n] = off + x.dim(p) * y.dim(q)
    return layout, dims


def dense_tensor_complex(x, y):
    layout, dims = dense_layout(x, y)
    d = {}
    for n in dims:
        tgt_off = {b[0]: b[2] for b in layout.get(n - 1, [])}
        terms = []
        for p, q, off, xd, yd in layout[n]:
            if p - 1 in tgt_off:
                terms.append((x.boundary(p), tgt_off[p - 1], off, 1, eye(yd)))
            if p in tgt_off:
                terms.append((eye(xd), tgt_off[p], off, -1 if p % 2 else 1,
                              y.boundary(q)))
        d[n] = assemble(dims.get(n - 1, 0), dims[n], terms)
    return ChainComplex(dims, d)


def dense_compose(g, f):
    mats = {}
    for k in f.src.dims:
        mid = k + f.deg
        if f.src.dim(k) and g.src.dim(mid) and g.dst.dim(mid + g.deg):
            mats[k] = mmul(g.block(mid), f.block(k))
    return GradedMap(f.src, g.dst, f.deg + g.deg, mats)


def dense_add(f, g):
    keys = set(f.mats) | set(g.mats)
    return GradedMap(f.src, f.dst, f.deg,
                     {k: madd(f.block(k), g.block(k)) for k in keys})


def dense_tensor_map(f, g):
    src_layout, src_dims = dense_layout(f.src, g.src)
    dst_layout, dst_dims = dense_layout(f.dst, g.dst)
    deg = f.deg + g.deg
    mats = {}
    for n, blocks in src_layout.items():
        rows = dst_dims.get(n + deg, 0)
        if not rows:
            continue
        tgt_off = {b[0]: b[2] for b in dst_layout[n + deg]}
        terms = []
        for p, q, off, xd, yd in blocks:
            fp, gq = f.block(p), g.block(q)
            if is_zero(fp) or is_zero(gq):
                continue
            terms.append((fp, tgt_off[p + f.deg], off,
                          -1 if (g.deg * p) % 2 else 1, gq))
        if terms:
            mats[n] = assemble(rows, src_dims[n], terms)
    return GradedMap(tensor_complex(f.src, g.src), tensor_complex(f.dst, g.dst),
                     deg, mats)


def dense_assoc_iso(x, y, z):
    xy_layout, _ = dense_layout(x, y)
    yz_layout, yz_dims = dense_layout(y, z)
    src_layout, src_dims = dense_layout(tensor_complex(x, y), z)
    dst_layout, dst_dims = dense_layout(x, tensor_complex(y, z))

    def offset(layout, n, p):
        return next(b[2] for b in layout[n] if b[0] == p)

    mats = {}
    for n, blocks in src_layout.items():
        terms = []
        for pq, r, off, _, zd in blocks:
            for p, q, xy_off, xd, yd in xy_layout[pq]:
                row0 = offset(dst_layout, n, p) + offset(yz_layout, q + r, q)
                col0 = off + xy_off * zd
                terms += [(eye(yd * zd), row0 + i * yz_dims[q + r],
                           col0 + i * yd * zd) for i in range(xd)]
        mats[n] = assemble(dst_dims[n], src_dims[n], terms)
    return GradedMap(tensor_complex(tensor_complex(x, y), z),
                     tensor_complex(x, tensor_complex(y, z)), 0, mats)


# ---------------------------------------------------------------------------
# Complexes to draw from

ALGEBRAS = ("rationals", "dual_numbers", "exterior", "cone", "exterior_down")


def algebra(kind):
    files = {"cone": CONE, "exterior_down": EXTERIOR_DOWN}
    return load_algebra(files[kind]) if kind in files else builtin_algebra(kind)


def pool(kind):
    """The complexes a run over this algebra builds maps between."""
    alg = algebra(kind)
    calc = builtin_module(alg, "free").calculus(1)
    ground = builtin_module(alg, "ground").cx
    return [unit_complex(), alg.cx, alg.abar, ground,
            *calc.pow[:3], *calc.barpow[1:3]]


def sparse_gmap(rng, src, dst, deg):
    """A random map with each block dropped at probability 1/3."""
    f = random_gmap(rng, src, dst, deg)
    return GradedMap(src, dst, deg,
                     {k: m for k, m in f.mats.items() if rng.random() < 2 / 3})


@pytest.mark.parametrize("kind", ALGEBRAS)
def test_tensor_layout_and_boundary_match_dense(kind):
    cxs = pool(kind)
    for x in cxs:
        for y in cxs:
            t = tensor_complex(x, y)
            assert t == dense_tensor_complex(x, y)
            layout, _ = dense_layout(x, y)
            assert t.off == {(p, q): off for blocks in layout.values()
                             for p, q, off, _, _ in blocks}


@pytest.mark.parametrize("kind", ALGEBRAS)
def test_operations_match_dense(kind):
    rng = random.Random(ALGEBRAS.index(kind))
    live = 0
    for _ in range(4):
        cxs = pool(kind) + [random_complex(rng, 2, 3)]
        for _ in range(60):
            x, y, z = (rng.choice(cxs) for _ in range(3))
            da, db = rng.randint(-1, 1), rng.randint(-1, 1)
            f = sparse_gmap(rng, x, y, da)
            f2 = sparse_gmap(rng, x, y, da)
            g = sparse_gmap(rng, y, z, db)
            gf, fg = gmap_compose(g, f), tensor_map(f, g)
            assert gf == dense_compose(g, f)
            assert gmap_add(f, f2) == dense_add(f, f2)
            assert fg == dense_tensor_map(f, g)
            assert tensor_map(g, f) == dense_tensor_map(g, f)
            live += not (gf.is_zero() and fg.is_zero())
    assert live  # the comparisons are not all between zero maps


@pytest.mark.parametrize("kind", ALGEBRAS)
def test_assoc_iso_matches_dense(kind):
    cxs = pool(kind)[:5]
    for x in cxs:
        for y in cxs:
            for z in cxs:
                assert assoc_iso(x, y, z) == dense_assoc_iso(x, y, z)


# ---------------------------------------------------------------------------
# Work


def test_no_product_has_a_zero_factor(monkeypatch, capsys):
    """Absent blocks are zero and no operation multiplies one: over a
    whole `dg check`, every matrix product has two factors with a
    nonzero entry."""
    seen = []

    def counting(a, b):
        seen.append(is_zero(a) or is_zero(b))
        return mmul(a, b)

    for mod in (weakmaps.dg, weakmaps.bar):
        monkeypatch.setattr(mod, "mmul", counting)
    args = "dg check --builtin exterior --module free --trunc 4 --trials 3"
    assert main(args.split()) == 0
    capsys.readouterr()
    assert seen and not any(seen), f"{sum(seen)} of {len(seen)} products"
