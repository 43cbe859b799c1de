"""The nonzero-only kernels against the dense formulas they replace."""

import random
from fractions import Fraction

import pytest
import sympy

from weakmaps.ratmat import _place, assemble, eye, mmul, rank, zeros
from generators import _unimodular, inverse


# -- dense reference formulas ------------------------------------------------


def dense_mmul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    if not b or not b[0]:
        return tuple(() for _ in a)
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def dense_kron(a, b):
    return tuple(
        tuple(x * y for x in arow for y in brow)
        for arow in a
        for brow in b
    )


def dense_place(out, a, r0, c0, sign, b):
    m = dense_kron(a, b)
    for i, row in enumerate(m):
        for j, v in enumerate(row):
            out[r0 + i][c0 + j] += sign * v
    return out


def kron(a, b):
    """The Kronecker product as one `assemble` term."""
    rows = len(a) * len(b)
    cols = (len(a[0]) if a else 0) * (len(b[0]) if b else 0)
    return assemble(rows, cols, [(a, 0, 0, 1, b)])


# -- seeded random operands --------------------------------------------------


def rand_mat(rng, r, c, density, fractions):
    def entry():
        if rng.random() >= density:
            return Fraction(0) if fractions and rng.random() < 0.5 else 0
        v = rng.choice([-3, -2, -1, 1, 2, 3])
        if fractions and rng.random() < 0.5:
            return Fraction(v, rng.choice([1, 2, 3, 5]))
        return v
    return tuple(tuple(entry() for _ in range(c)) for _ in range(r))


CASES = [(seed, density, fractions)
         for seed in range(4)
         for density in (0, 0.05, 1)
         for fractions in (False, True)]


@pytest.mark.parametrize("seed,density,fractions", CASES)
def test_mmul_matches_dense(seed, density, fractions):
    rng = random.Random(seed)
    for _ in range(5):
        r, k, c = (rng.randint(1, 7) for _ in range(3))
        a = rand_mat(rng, r, k, density, fractions)
        b = rand_mat(rng, k, c, density, fractions)
        got, want = mmul(a, b), dense_mmul(a, b)
        assert got == want
        assert hash(got) == hash(want)


@pytest.mark.parametrize("seed,density,fractions", CASES)
def test_kron_matches_dense(seed, density, fractions):
    rng = random.Random(100 + seed)
    for _ in range(5):
        a = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4), density, fractions)
        b = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4), density, fractions)
        got, want = kron(a, b), dense_kron(a, b)
        assert got == want
        assert hash(got) == hash(want)


@pytest.mark.parametrize("seed,density,fractions", CASES)
def test_place_matches_dense(seed, density, fractions):
    rng = random.Random(200 + seed)
    for _ in range(5):
        a = rand_mat(rng, rng.randint(1, 3), rng.randint(1, 3), density, fractions)
        b = rand_mat(rng, rng.randint(1, 3), rng.randint(1, 3), density, fractions)
        rows, cols = len(a) * len(b), len(a[0]) * len(b[0])
        r0, c0 = rng.randint(0, 3), rng.randint(0, 3)
        sign = rng.choice([1, -1])
        base = rand_mat(rng, rows + r0 + 2, cols + c0 + 2, 0.3, fractions)
        got = _place([list(r) for r in base], a, r0, c0, sign, b)
        want = dense_place([list(r) for r in base], a, r0, c0, sign, b)
        assert got == want


@pytest.mark.parametrize("seed,density,fractions", CASES)
def test_assemble_matches_dense(seed, density, fractions):
    # overlapping terms of both signs summed into a zero matrix
    rng = random.Random(500 + seed)
    for _ in range(5):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        terms = []
        for _ in range(rng.randint(0, 4)):
            a = rand_mat(rng, rng.randint(1, 3), rng.randint(1, 3), density, fractions)
            b = rand_mat(rng, rng.randint(1, 2), rng.randint(1, 2), density, fractions)
            r, c = len(a) * len(b), len(a[0]) * len(b[0])
            if r > rows or c > cols:
                continue
            terms.append((a, rng.randint(0, rows - r), rng.randint(0, cols - c),
                          rng.choice([1, -1, Fraction(-1, 2)]), b))
        want = [[0] * cols for _ in range(rows)]
        for t in terms:
            dense_place(want, *t)
        got = assemble(rows, cols, terms)
        assert got == tuple(map(tuple, want))
        assert hash(got) == hash(tuple(map(tuple, want)))


def test_assemble_overlaps_defaults_and_empty_shapes():
    m = assemble(2, 3, [(((1, 2),), 0, 0), (((5,),), 0, 1, -1),
                        (((Fraction(1, 2),),), 1, 2, 1, ((4,),))])
    assert m == ((1, -3, 0), (0, 0, 2))
    assert assemble(2, 2, []) == zeros(2, 2) == ((0, 0), (0, 0))
    assert assemble(0, 3, []) == ()
    assert assemble(2, 0, []) == ((), ())
    assert assemble(2, 0, [(((),), 1, 0)]) == ((), ())
    # terms that cancel leave an exact zero
    third = Fraction(1, 3)
    assert assemble(1, 1, [(((third,),), 0, 0), (((1,),), 0, 0, -third)]) == ((0,),)


def test_place_defaults_add_the_block_itself():
    out = [[0] * 3 for _ in range(3)]
    _place(out, ((1, 2), (0, 3)), 1, 1)
    _place(out, ((5,),), 0, 0, -1)
    assert out == [[-5, 0, 0], [0, 1, 2], [0, 0, 3]]


def test_empty_operands():
    # 0-row left factor
    assert mmul((), ((1, 2),)) == dense_mmul((), ((1, 2),)) == ()
    # 0-column right factor: rows of the left factor survive, empty
    assert mmul(((1,), (2,)), ((),)) == dense_mmul(((1,), (2,)), ((),)) == ((), ())
    assert mmul(((1, 2), (0, 0), (3, 4)), ((), ())) == ((), (), ())
    # inner dimension 0
    assert mmul(((), ()), ()) == dense_mmul(((), ()), ()) == ((), ())
    assert kron((), ((1,),)) == dense_kron((), ((1,),)) == ()
    assert kron(((1, 2),), ()) == dense_kron(((1, 2),), ()) == ()
    assert kron(((),), ((1, 2),)) == dense_kron(((),), ((1, 2),)) == ((),)
    assert _place([[7]], (), 0, 0) == [[7]]


def test_shape_mismatch_raises():
    with pytest.raises(ValueError, match="shape mismatch"):
        mmul(((1, 2),), ((1, 2),))
    with pytest.raises(ValueError, match="shape mismatch"):
        mmul(((),), ((1,),))
    with pytest.raises(ValueError, match="shape mismatch"):
        mmul(((1,),), ())


def test_kron_index_convention():
    # entry (i*rows(b)+p, k*cols(b)+q) is a[i][k] * b[p][q]
    a = ((1, 2), (3, 4))
    b = ((5, 6, 7), (8, 9, 10))
    m = kron(a, b)
    for i in range(2):
        for k in range(2):
            for p in range(2):
                for q in range(3):
                    assert m[i * len(b) + p][k * len(b[0]) + q] == a[i][k] * b[p][q]


@pytest.mark.parametrize("seed", range(12))
def test_rank_matches_sympy(seed):
    rng = random.Random(300 + seed)
    r, c = rng.randint(1, 6), rng.randint(1, 6)
    a = rand_mat(rng, r, c, rng.choice([0, 0.3, 1]), seed % 2 == 1)
    if seed % 3 == 0 and r > 1:
        # force a dependent row
        a = a[:-1] + (tuple(x + 2 * y for x, y in zip(a[0], a[1 % (r - 1)])),)
    assert rank(a) == sympy.Matrix(a).rank()
    assert rank(zeros(r, c)) == 0


@pytest.mark.parametrize("seed", range(12))
def test_inverse_of_unimodular(seed):
    rng = random.Random(400 + seed)
    n = rng.randint(1, 6)
    m = _unimodular(rng, n)
    inv = inverse(m)
    assert mmul(inv, m) == eye(n) == mmul(m, inv)
    assert all(v.denominator == 1 for row in inv for v in row)


def test_inverse_of_rational_matrix_and_singular():
    a = ((2, 1), (Fraction(1, 2), 3))
    assert mmul(a, inverse(a)) == eye(2)
    with pytest.raises(ValueError, match="singular"):
        inverse(((1, 2), (2, 4)))
