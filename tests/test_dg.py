import ast
import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from weakmaps.dg import (
    ChainComplex,
    DgError,
    GradedMap,
    HomologicalLali,
    assoc_iso,
    boundary_gmap,
    chain_sides,
    gmap_compose,
    gmap_sum,
    graded_differential,
    homology_ranks,
    id_gmap,
    is_chain_map,
    lunit_iso,
    random_gmap,
    runit_iso,
    tensor_complex,
    tensor_map,
    unit_complex,
    zero_gmap,
)
from weakmaps.ratmat import assemble, eye, mat, rank, zeros
from generators import (compose_lali, dense, dense_gmap_sum, identity_lali,
                        lali_morphism_ok, random_complex, random_lali,
                        symmetry_iso, total_dim)


def test_kron_index_convention():
    # a (x) b is the one-term assemble (a, 0, 0, 1, b)
    assert assemble(2, 2, [(eye(2), 0, 0, 1, mat([[5]]))]) == mat([[5, 0], [0, 5]])
    # (i, j) |-> i * rows(b) + j
    assert (assemble(4, 1, [(mat([[1], [2]]), 0, 0, 1, mat([[1], [1]]))])
            == mat([[1], [1], [2], [2]]))
    assert assemble(1, 4, [(mat([[1, 2]]), 0, 0, 1, mat([[3, 4]]))]) == mat([[3, 4, 6, 8]])


def test_complex_rejects_bad_boundary():
    with pytest.raises(DgError):
        ChainComplex({0: 2, 1: 1}, {1: mat([[1]])})  # wrong row count
    # d.d != 0 is left to the loader and the tensor product: the reduced
    # part of an algebra whose unit is not a cycle must still be built
    bad = ChainComplex({0: 1, 1: 1, 2: 1}, {1: mat([[1]]), 2: mat([[1]])})
    for x, y in ((bad, unit_complex()), (unit_complex(), bad)):
        with pytest.raises(DgError, match=r"d\.d != 0 out of degree 2"):
            tensor_complex(x, y)


def test_complex_normalisation():
    c = ChainComplex({0: 2, 1: 1, 5: 0}, {1: mat([[0], [0]])})
    assert c.dims == {0: 2, 1: 1}
    assert c.d == {}  # zero boundary dropped
    assert c.boundary(1) == mat([[0], [0]])
    assert c.boundary(7) == zeros(0, 0)
    assert c == ChainComplex({1: 1, 0: 2}, {})
    assert total_dim(c) == 3


def test_frozen_homology():
    c = ChainComplex({0: 2, 1: 2}, {1: mat([[1, 1], [1, 1]])})
    assert homology_ranks(c, c.degrees()) == {0: 1, 1: 1}


@pytest.mark.parametrize("seed", range(25))
def test_homology_matches_sympy(seed):
    rng = random.Random(seed)
    c = random_complex(rng, max_deg=3, max_cells=5)
    ours = homology_ranks(c, c.degrees())
    for k in c.degrees():
        r_in = sympy.Matrix(dense(c.boundary(k + 1))).rank() if c.dim(k + 1) else 0
        r_out = sympy.Matrix(dense(c.boundary(k))).rank() if c.dim(k - 1) else 0
        assert ours[k] == c.dim(k) - r_in - r_out


def test_graded_map_drops_zero_blocks():
    c = ChainComplex({0: 1, 1: 1}, {1: mat([[1]])})
    f = GradedMap(c, c, 0, {0: mat([[0]]), 1: mat([[2]])})
    assert f.mats == {1: mat([[2]])}
    assert f.block(0) == mat([[0]])
    assert GradedMap(c, c, 0, {}) == zero_gmap(c, c)
    with pytest.raises(DgError):
        GradedMap(c, c, 0, {0: mat([[1, 1]])})


def test_graded_differential_frozen():
    c = ChainComplex({0: 1, 1: 1}, {1: mat([[1]])})
    f = GradedMap(c, c, 0, {0: mat([[2]]), 1: mat([[3]])})
    df = graded_differential(f)
    assert df.deg == -1
    assert df.mats == {1: mat([[1]])}  # d.f1 - f0.d = 3 - 2
    assert not is_chain_map(f)
    g = GradedMap(c, c, 0, {0: mat([[2]]), 1: mat([[2]])})
    assert is_chain_map(g)
    assert is_chain_map(id_gmap(c))


def test_chain_sides_frozen():
    c = ChainComplex({0: 1, 1: 1}, {1: mat([[1]])})
    assert chain_sides(GradedMap(c, c, 0, {0: mat([[2]]), 1: mat([[2]])})) == (True, "", "")
    assert chain_sides(GradedMap(c, c, 0, {0: mat([[2]]), 1: mat([[3]])})) == (
        False, "deg=0 D=GradedMap(deg=-1, {1: (0,0)=1})", "deg=0 D=0")
    # a degree-1 map is not a chain map even when its D vanishes
    assert chain_sides(zero_gmap(c, c, 1)) == (
        False, "deg=1 D=GradedMap(deg=0, {})", "deg=0 D=0")


def test_lali_chain_check_fails_with_both_sides():
    c = ChainComplex({0: 1, 1: 1}, {1: mat([[1]])})
    g = GradedMap(c, c, 0, {0: mat([[2]]), 1: mat([[3]])})
    rep = HomologicalLali(g, id_gmap(c), zero_gmap(c, c, 1)).validate()
    bad, = [x for x in rep.failures() if x.name == "lali.g.chain"]
    assert (bad.lhs, bad.rhs) == ("deg=0 D=GradedMap(deg=-1, {1: (0,0)=1})",
                                  "deg=0 D=0")


def test_lali_shape_failure_has_both_sides():
    c = ChainComplex({0: 1}, {})
    one = id_gmap(c)
    rep = HomologicalLali(one, one, zero_gmap(c, c, 0)).validate()
    bad, = rep.failures()
    assert bad.name == "lali.shape" and bad.lhs != bad.rhs
    assert bad.lhs.endswith(", 0)") and bad.rhs.endswith(", 1)")


def _seeded_complexes(seed, n=2, max_deg=2, max_cells=3):
    rng = random.Random(seed)
    return rng, [random_complex(rng, max_deg, max_cells) for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), da=st.integers(-1, 1), db=st.integers(-1, 1))
def test_leibniz_for_composition(seed, da, db):
    rng, (x, y) = _seeded_complexes(seed)
    z = random_complex(rng, 2, 3)
    f = random_gmap(rng, x, y, da)
    g = random_gmap(rng, y, z, db)
    lhs = graded_differential(gmap_compose(g, f))
    rhs = gmap_sum(x, z, da + db - 1, [(1, graded_differential(g), f),
                                       ((-1) ** (db % 2), g, graded_differential(f))])
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), deg=st.integers(-1, 1))
def test_differential_squares_to_zero(seed, deg):
    rng, (x, y) = _seeded_complexes(seed)
    f = random_gmap(rng, x, y, deg)
    assert graded_differential(graded_differential(f)).is_zero()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), da=st.integers(-1, 1), db=st.integers(-1, 1),
       coeffs=st.lists(st.sampled_from([0, 1, -1, 2, Fraction(-1, 2)]),
                       min_size=0, max_size=5))
def test_gmap_sum_matches_the_dense_sum(seed, da, db, coeffs):
    # composites and plain multiples mixed, zero coefficients and
    # zero maps included
    rng, (x, y) = _seeded_complexes(seed)
    z = random_complex(rng, 2, 3)
    terms = []
    for i, c in enumerate(coeffs):
        g = random_gmap(rng, y, z, db) if i % 3 else zero_gmap(y, z, db)
        f = random_gmap(rng, x, y, da)
        terms.append((c, g, f) if i % 2 else (c, gmap_compose(g, f)))
    got = gmap_sum(x, z, da + db, terms)
    assert got == dense_gmap_sum(x, z, da + db, terms)


def test_gmap_sum_rejects_a_term_of_the_wrong_type():
    x, y = (ChainComplex({0: 1, 1: 1}, {1: mat([[v]])}) for v in (1, 2))
    z = ChainComplex({0: 2}, {})
    f = GradedMap(x, y, 0, {0: mat([[1]])})
    g = GradedMap(y, y, 1, {0: mat([[1]])})
    assert gmap_sum(x, y, 1, [(1, g, f), (2, gmap_compose(g, f))]).mats == {
        0: mat([[3]])}
    for terms in ([(1, f, g)],                      # g ends in y, f starts at x
                  [(1, GradedMap(z, z, 0, {}), f)]):
        with pytest.raises(DgError, match="not composable"):
            gmap_sum(x, y, 1, terms)
    for terms in ([(1, f)],                         # degree 0, not 1
                  [(1, g, f), (1, GradedMap(x, z, 1, {}))],
                  [(1, g)],                         # source y, not x
                  [(1, id_gmap(y), gmap_compose(g, f)), (1, g, g)]):
        with pytest.raises(DgError, match="not addable"):
            gmap_sum(x, y, 1, terms)


# frozen pair used by the tensor tests
X = ChainComplex({0: 1, 1: 2}, {1: mat([[1, -1]])})
Y = ChainComplex({0: 2, 1: 1}, {1: mat([[2], [0]])})


def test_tensor_frozen_boundaries():
    t = tensor_complex(X, Y)
    assert t.dims == {0: 2, 1: 5, 2: 2}
    # blocks at degree 1 in ascending left degree: (0,1) then (1,0)
    assert t.off == {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0}
    assert t.boundary(1) == mat([[2, 1, 0, -1, 0], [0, 0, 1, 0, -1]])
    assert t.boundary(2) == mat([[1, -1], [-2, 0], [0, 0], [0, -2], [0, 0]])


def test_tensor_kunneth_frozen():
    t = tensor_complex(X, Y)
    # H(X) = (0, 1), H(Y) = (1, 0) so the product concentrates in degree 1
    assert homology_ranks(t, t.degrees()) == {0: 0, 1: 1, 2: 0}


def test_tensor_boundary_decomposition():
    t = tensor_complex(X, Y)
    left = tensor_map(boundary_gmap(X), id_gmap(Y))
    right = tensor_map(id_gmap(X), boundary_gmap(Y))
    assert gmap_sum(t, t, -1, [(1, left), (1, right)]) == boundary_gmap(t)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), da=st.integers(-1, 1), db=st.integers(-1, 1))
def test_tensor_leibniz(seed, da, db):
    rng, (x, y) = _seeded_complexes(seed)
    x2 = random_complex(rng, 2, 3)
    y2 = random_complex(rng, 2, 3)
    f = random_gmap(rng, x, x2, da)
    g = random_gmap(rng, y, y2, db)
    lhs = graded_differential(tensor_map(f, g))
    rhs = gmap_sum(lhs.src, lhs.dst, lhs.deg, [
        (1, tensor_map(graded_differential(f), g)),
        ((-1) ** (da % 2), tensor_map(f, graded_differential(g)))])
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), degs=st.tuples(
    st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1)))
def test_tensor_interchange_sign(seed, degs):
    da, db, dc, dd = degs
    rng, (x, y) = _seeded_complexes(seed)
    x2, y2 = random_complex(rng, 2, 3), random_complex(rng, 2, 3)
    x3, y3 = random_complex(rng, 2, 3), random_complex(rng, 2, 3)
    f = random_gmap(rng, x, x2, da)
    g = random_gmap(rng, y, y2, db)
    f2 = random_gmap(rng, x2, x3, dc)
    g2 = random_gmap(rng, y2, y3, dd)
    outer = tensor_map(f2, g2)
    inner = tensor_map(f, g)
    lhs = gmap_compose(outer, inner)
    rhs = gmap_sum(lhs.src, lhs.dst, lhs.deg, [
        ((-1) ** ((da * dd) % 2),
         tensor_map(gmap_compose(f2, f), gmap_compose(g2, g)))])
    assert lhs == rhs


def test_unit_isos():
    for c in (X, Y, unit_complex()):
        lam, rho = lunit_iso(c), runit_iso(c)
        assert is_chain_map(lam) and is_chain_map(rho)
        for n in c.degrees():
            assert lam.src.dim(n) == c.dim(n) == rho.src.dim(n)
            assert rank(lam.block(n)) == c.dim(n)


def test_assoc_iso_is_permutation_chain_map():
    z = ChainComplex({0: 1, 2: 1}, {})
    a = assoc_iso(X, Y, z)
    assert is_chain_map(a)
    for n in a.src.degrees():
        m = dense(a.block(n))
        assert rank(a.block(n)) == a.src.dim(n) == a.dst.dim(n)
        assert all(v in (0, 1) for row in m for v in row)
        assert all(sum(row) == 1 for row in m)


@pytest.mark.parametrize("seed", range(6))
def test_assoc_iso_is_natural(seed):
    # a (f(x)g)(x)h = f(x)(g(x)h) a for random degree-0 maps pins down
    # where every basis element (i, j, k) goes, not just that it is a bijection
    rng = random.Random(700 + seed)
    xs = [random_complex(rng, max_deg=2, max_cells=2) for _ in range(3)]
    ys = [random_complex(rng, max_deg=2, max_cells=2) for _ in range(3)]
    f, g, h = (random_gmap(rng, x, y) for x, y in zip(xs, ys))
    a_x, a_y = assoc_iso(*xs), assoc_iso(*ys)
    lhs = gmap_compose(a_y, tensor_map(tensor_map(f, g), h))
    rhs = gmap_compose(tensor_map(f, tensor_map(g, h)), a_x)
    assert lhs == rhs


def test_symmetry_frozen():
    s = symmetry_iso(X, Y)
    assert is_chain_map(s)
    # only the (1,1) block lives in degree 2 and it picks up a sign
    assert s.block(2) == mat([[-1, 0], [0, -1]])
    back = symmetry_iso(Y, X)
    assert gmap_compose(back, s) == id_gmap(s.src)
    assert gmap_compose(s, back) == id_gmap(s.dst)


@pytest.mark.parametrize("seed", range(12))
def test_symmetry_random(seed):
    rng = random.Random(seed)
    x = random_complex(rng, 3, 4)
    y = random_complex(rng, 3, 4)
    s = symmetry_iso(x, y)
    assert is_chain_map(s)
    back = symmetry_iso(y, x)
    assert gmap_compose(back, s) == id_gmap(s.src)


def test_tensor_complex_is_built_once_per_pair():
    x2 = ChainComplex(dict(X.dims), dict(X.d))
    assert x2 is not X and x2 == X
    assert tensor_complex(x2, Y) is tensor_complex(X, Y)
    assert tensor_complex(unit_complex(), X) is tensor_complex(unit_complex(), X)


def test_complexes_built_apart_compare_and_hash_alike():
    # the hash is taken once, at construction: equal complexes built
    # separately, from differently written data, still agree on it
    a = ChainComplex({0: 1, 1: 2, 3: 0}, {1: mat([[1, Fraction(-1, 2)]]),
                                           2: mat([[0], [0]])})
    b = ChainComplex({1: 2, 0: 1}, {1: mat([[Fraction(1), Fraction(-1, 2)]])})
    assert a is not b and a == b and hash(a) == hash(b)
    assert a == a and hash(a) == hash(a)
    c = ChainComplex({0: 1, 1: 2}, {1: mat([[1, Fraction(1, 2)]])})
    assert a != c and ChainComplex({0: 1, 1: 2}, {}) != a
    assert len({a, b, c}) == 2


def test_tensor_map_reads_its_endpoints_from_tensor_complex():
    f, g = boundary_gmap(X), random_gmap(random.Random(3), Y, X, 1)
    m = tensor_map(f, g)
    assert m.src is tensor_complex(f.src, g.src)
    assert m.dst is tensor_complex(f.dst, g.dst)


def test_isos_read_their_endpoints_from_tensor_complex():
    z = ChainComplex({0: 1, 2: 1}, {})
    a = assoc_iso(X, Y, z)
    assert a.src is tensor_complex(tensor_complex(X, Y), z)
    assert a.dst is tensor_complex(X, tensor_complex(Y, z))
    lam, rho = lunit_iso(X), runit_iso(X)
    assert lam.src is tensor_complex(unit_complex(), X) and lam.dst is X
    assert rho.src is tensor_complex(X, unit_complex()) and rho.dst is X


def test_tensor_complex_is_the_one_constructor():
    """TensorComplex(...) is called only inside dg.tensor_complex, so no
    caller builds (and d.d-checks) a tensor complex a second time."""
    root = Path(__file__).resolve().parents[1]
    calls = []
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]):
        for top in ast.parse(path.read_text()).body:
            if (path.name == "dg.py" and isinstance(top, ast.FunctionDef)
                    and top.name == "tensor_complex"):
                continue
            calls += [f"{path.name}:{node.lineno}" for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and "TensorComplex" in (getattr(node.func, "id", None),
                                              getattr(node.func, "attr", None))]
    assert not calls, "TensorComplex built outside tensor_complex at " + ", ".join(calls)


def test_lali_frozen_small():
    b = ChainComplex({0: 1}, {})
    a = ChainComplex({0: 2, 1: 1}, {1: mat([[0], [1]])})
    g = GradedMap(a, b, 0, {0: mat([[1, 0]])})
    q = GradedMap(b, a, 0, {0: mat([[1], [0]])})
    xi = GradedMap(a, a, 1, {0: mat([[0, 1]])})
    lali = HomologicalLali(g, q, xi)
    rep = lali.validate()
    assert rep.ok, rep.failures()
    # breaking the side condition xi.xi = 0 must be caught
    bad = HomologicalLali(g, q, gmap_sum(a, a, 1, [(1, xi), (1, zero_gmap(a, a, 1))]))
    assert bad.validate().ok  # adding zero changes nothing
    worse = HomologicalLali(g, GradedMap(b, a, 0, {0: mat([[1], [1]])}), xi)
    assert not worse.validate().ok


@pytest.mark.parametrize("seed", range(200))
def test_random_lali_validates(seed):
    rng = random.Random(seed)
    lali = random_lali(rng)
    rep = lali.validate()
    assert rep.ok, rep.failures()


@pytest.mark.parametrize("seed", range(60))
def test_lali_composition_closed(seed):
    rng = random.Random(1000 + seed)
    outer = random_lali(rng)
    inner = random_lali(rng, base=outer.src)
    comp = compose_lali(outer, inner)
    assert comp.src == inner.src and comp.dst == outer.dst
    rep = comp.validate()
    assert rep.ok, rep.failures()


def test_lali_composition_associative():
    rng = random.Random(7)
    h = random_lali(rng)
    g = random_lali(rng, base=h.src)
    f = random_lali(rng, base=g.src)
    left = compose_lali(compose_lali(h, g), f)
    right = compose_lali(h, compose_lali(g, f))
    assert left.g == right.g and left.q == right.q and left.xi == right.xi


def test_lali_identity_neutral():
    rng = random.Random(3)
    lali = random_lali(rng)
    left = compose_lali(identity_lali(lali.dst), lali)
    right = compose_lali(lali, identity_lali(lali.src))
    for c in (left, right):
        assert c.g == lali.g and c.q == lali.q and c.xi == lali.xi
    assert identity_lali(lali.src).validate().ok


def test_lali_morphism_identity():
    rng = random.Random(11)
    lali = random_lali(rng)
    assert lali_morphism_ok(id_gmap(lali.src), id_gmap(lali.dst), lali, lali)
    # a non-chain map is rejected
    bad = random_gmap(rng, lali.src, lali.src, 0)
    if not is_chain_map(bad):
        assert not lali_morphism_ok(bad, id_gmap(lali.dst), lali, lali)


@pytest.mark.parametrize("seed", range(30))
def test_lali_is_quasi_iso(seed):
    rng = random.Random(500 + seed)
    lali = random_lali(rng)
    ha = homology_ranks(lali.src, lali.src.degrees())
    hb = homology_ranks(lali.dst, lali.dst.degrees())
    for k in set(ha) | set(hb):
        assert ha.get(k, 0) == hb.get(k, 0)


def test_seeded_instances_pinned():
    # Seeded complexes and lalis are the inputs of every random dg test;
    # pinned so that a change to how their sums are built cannot move them.
    # Entries are written with str, so that an int and an equal Fraction
    # read alike whichever way a sum stored them.
    def blocks(mats):
        return [(k, [[str(v) for v in row] for row in dense(m)])
                for k, m in sorted(mats.items())]

    def cx(c):
        return repr((sorted(c.dims.items()), blocks(c.d)))

    def gm(f):
        return repr((f.deg, blocks(f.mats)))

    h = hashlib.md5()
    for s in range(200):
        h.update(cx(random_complex(random.Random(s), 3, 5)).encode())
        lali = random_lali(random.Random(10_000 + s))
        h.update((gm(lali.g) + gm(lali.q) + gm(lali.xi) + cx(lali.src)).encode())
    assert h.hexdigest() == "55f342993fd9788f1cf7381489cfca47"
