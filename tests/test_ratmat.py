"""The sparse exact kernels against the dense formulas they replace."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from weakmaps import bar
from weakmaps.ratmat import (Mat, _place, assemble, entries, eye, is_zero,
                             mat, mmul, msum, nonzeros, rank, shape,
                             transpose, zeros)
from generators import _unimodular, dense, inverse


# -- dense reference formulas ------------------------------------------------


def dense_mmul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    if not b or not b[0]:
        return tuple(() for _ in a)
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def dense_msum(rows, cols, terms):
    out = [[0] * cols for _ in range(rows)]
    for c, a, b in terms:
        for i, row in enumerate(out):
            for j in range(cols):
                row[j] += c * sum(a[i][t] * b[t][j] for t in range(len(b)))
    return tuple(map(tuple, out))


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
    return assemble(len(a) * len(b), a.cols * b.cols, [(a, 0, 0, 1, b)])


def assert_stored(m):
    """`m` is a Mat in its one stored form: each row its nonzero (j, v)
    in ascending j < cols, v an int when integral, else a Fraction."""
    assert type(m) is Mat
    for row in m:
        assert type(row) is tuple
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= j < m.cols for j in cols)
        for _, v in row:
            assert type(v) in (int, Fraction), repr(v)
            assert v != 0
            assert type(v) is int or v.denominator != 1, repr(v)


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
        got, want = mmul(mat(a), mat(b)), dense_mmul(a, b)
        assert_stored(got)
        assert dense(got) == want
        assert got == mat(want) and hash(got) == hash(mat(want))


def as_mat(rows, r, c):
    """The r x c matrix with the dense rows `rows`, r or c possibly 0."""
    return mat(rows) if r else zeros(0, c)


@pytest.mark.parametrize("seed,density,fractions", CASES)
def test_msum_matches_dense(seed, density, fractions):
    # up to four terms, each with its own inner dimension (0 included)
    # and a coefficient that may be 0
    rng = random.Random(600 + seed)
    for _ in range(5):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        terms = []
        for _ in range(rng.randint(0, 4)):
            k = rng.randint(0, 5)
            terms.append((rng.choice([0, 1, -1, 2, Fraction(-2, 3)]),
                          rand_mat(rng, rows, k, density, fractions),
                          rand_mat(rng, k, cols, density, fractions)))
        got = msum(rows, cols, [(c, as_mat(a, rows, len(b)), as_mat(b, len(b), cols))
                                for c, a, b in terms])
        want = dense_msum(rows, cols, terms)
        assert_stored(got)
        assert shape(got) == (rows, cols) and dense(got) == want
        assert got == as_mat(want, rows, cols)
        assert hash(got) == hash(as_mat(want, rows, cols))


def test_msum_zero_coefficients_and_empty_operands():
    a, b = mat([[1, 2], [0, 3]]), mat([[4], [5]])
    assert msum(2, 1, []) == zeros(2, 1) == msum(2, 1, [(0, a, b)])
    assert msum(2, 1, [(1, a, b), (-1, a, b)]) == zeros(2, 1)
    assert msum(2, 1, [(Fraction(1, 2), a, b), (0, a, b)]) == mat([[7], [Fraction(15, 2)]])
    assert msum(0, 3, [(1, zeros(0, 2), zeros(2, 3))]) == zeros(0, 3)
    assert msum(2, 3, [(1, zeros(2, 0), zeros(0, 3))]) == zeros(2, 3)
    assert msum(2, 0, [(1, a, mat([[], []]))]) == zeros(2, 0)
    assert mmul(a, b) == msum(2, 1, [(1, a, b)])


@pytest.mark.parametrize("rows,cols,a,b", [
    (1, 1, mat([[1, 2]]), mat([[1, 2]])),   # inner dimensions differ
    (1, 1, mat([[1]]), zeros(0, 1)),
    (2, 1, mat([[1]]), mat([[1]])),         # the rows of a are not the sum's
    (1, 2, mat([[1]]), mat([[1]])),         # the columns of b are not the sum's
])
def test_msum_shape_mismatch_raises(rows, cols, a, b):
    with pytest.raises(ValueError, match="shape mismatch"):
        msum(rows, cols, [(1, a, b)])
    # a zero coefficient does not excuse a term of the wrong shape
    with pytest.raises(ValueError, match="shape mismatch"):
        msum(rows, cols, [(0, a, b)])


@pytest.mark.parametrize("seed,density,fractions", CASES)
def test_kron_matches_dense(seed, density, fractions):
    rng = random.Random(100 + seed)
    for _ in range(5):
        a = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4), density, fractions)
        b = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4), density, fractions)
        got, want = kron(mat(a), mat(b)), dense_kron(a, b)
        assert_stored(got)
        assert dense(got) == want
        assert got == mat(want) and hash(got) == hash(mat(want))


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
        out = _place([dict(enumerate(r)) for r in base], mat(a), r0, c0, sign, mat(b))
        got = [[row[j] for j in range(len(base[0]))] for row in out]
        assert got == dense_place([list(r) for r in base], a, r0, c0, sign, b)


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
        got = assemble(rows, cols, [(mat(a), r0, c0, sign, mat(b))
                                    for a, r0, c0, sign, b in terms])
        assert_stored(got)
        assert shape(got) == (rows, cols)
        assert dense(got) == tuple(map(tuple, want))
        if rows:
            assert got == mat(want) and hash(got) == hash(mat(want))


def test_assemble_overlaps_defaults_and_empty_shapes():
    m = assemble(2, 3, [(mat([[1, 2]]), 0, 0), (mat([[5]]), 0, 1, -1),
                        (mat([[Fraction(1, 2)]]), 1, 2, 1, mat([[4]]))])
    assert m == mat([[1, -3, 0], [0, 0, 2]])
    assert type(m[1][0][1]) is int  # 1/2 * 4 is stored as the int 2
    assert assemble(2, 2, []) == zeros(2, 2) == mat([[0, 0], [0, 0]])
    assert shape(assemble(0, 3, [])) == (0, 3) and assemble(0, 3, []) == zeros(0, 3)
    assert assemble(2, 0, []) == mat([[], []]) == zeros(2, 0)
    assert assemble(2, 0, [(mat([[]]), 1, 0)]) == zeros(2, 0)
    # equal rows but other shapes are other matrices
    assert zeros(2, 2) != zeros(2, 3) and zeros(0, 2) != zeros(0, 3)
    # terms that cancel leave an exact zero
    third = Fraction(1, 3)
    assert assemble(1, 1, [(mat([[third]]), 0, 0), (mat([[1]]), 0, 0, -third)]) == zeros(1, 1)


def test_place_defaults_add_the_block_itself():
    out = [{} for _ in range(3)]
    _place(out, mat([[1, 2], [0, 3]]), 1, 1)
    _place(out, mat([[5]]), 0, 0, -1)
    assert out == [{0: -5}, {1: 1, 2: 2}, {2: 3}]


def test_empty_operands():
    # 0-row left factor
    assert mmul(zeros(0, 1), mat([[1, 2]])) == zeros(0, 2)
    # 0-column right factor: rows of the left factor survive, empty
    assert mmul(mat([[1], [2]]), mat([[]])) == zeros(2, 0)
    assert mmul(mat([[1, 2], [0, 0], [3, 4]]), mat([[], []])) == zeros(3, 0)
    # inner dimension 0
    assert mmul(zeros(2, 0), zeros(0, 3)) == zeros(2, 3)
    assert kron(zeros(0, 1), mat([[1]])) == zeros(0, 1)
    assert kron(mat([[1, 2]]), zeros(0, 2)) == zeros(0, 4)
    assert kron(mat([[]]), mat([[1, 2]])) == zeros(1, 0)
    assert _place([{0: 7}], zeros(0, 0), 0, 0) == [{0: 7}]


def test_shape_mismatch_raises():
    with pytest.raises(ValueError, match="shape mismatch"):
        mmul(mat([[1, 2]]), mat([[1, 2]]))
    with pytest.raises(ValueError, match="shape mismatch"):
        mmul(mat([[]]), mat([[1]]))
    with pytest.raises(ValueError, match="shape mismatch"):
        mmul(mat([[1]]), zeros(0, 1))


def test_kron_index_convention():
    # entry (i*rows(b)+p, k*cols(b)+q) is a[i][k] * b[p][q]
    a = ((1, 2), (3, 4))
    b = ((5, 6, 7), (8, 9, 10))
    m = dense(kron(mat(a), mat(b)))
    for i in range(2):
        for k in range(2):
            for p in range(2):
                for q in range(3):
                    assert m[i * len(b) + p][k * len(b[0]) + q] == a[i][k] * b[p][q]


# -- rank --------------------------------------------------------------------


def _ground_degeneracy_images():
    """The stacked degeneracy images that `bar resolve --trunc 4` (dual
    numbers, ground) ranks, caught at `degeneracy_image_dims`."""
    alg = bar.builtin_algebra("dual_numbers")
    calc = bar.builtin_module(alg, "ground").calculus(4)
    ranked = []

    def record(a):
        ranked.append(a)
        return rank(a)

    saved, bar.rank = bar.rank, record
    try:
        for n in range(5):
            bar.degeneracy_image_dims(calc, n)
    finally:
        bar.rank = saved
    return ranked


def rank_operands(case):
    """The matrices of one case of `test_rank_matches_sympy`."""
    if case == "empty-and-zero":
        return [zeros(0, 3), zeros(3, 0), zeros(0, 0), zeros(3, 4)]
    if case == "fraction-pivots":
        # every pivot is a Fraction or an int that does not divide the row
        return [mat([[Fraction(2, 3), 1, Fraction(-1, 5)],
                     [Fraction(4, 3), 2, Fraction(-2, 5)],
                     [3, Fraction(1, 7), 0]]),
                mat([[2, 3], [3, 5]]), mat([[0, Fraction(3, 4)], [Fraction(5, 6), 1]])]
    if case == "one-per-column":
        # the shape of the faces and degeneracies: one nonzero per column
        rng = random.Random(7)
        out = []
        for r, c in [(4, 8), (8, 4), (5, 5), (16, 32)]:
            rows = [[0] * c for _ in range(r)]
            for j in range(c):
                rows[rng.randrange(r)][j] = rng.choice([1, -1, 2])
            out.append(mat(rows))
        return out
    if case == "degeneracy-images":
        return _ground_degeneracy_images()
    rng = random.Random(300 + case)
    r, c = rng.randint(1, 6), rng.randint(1, 6)
    a = rand_mat(rng, r, c, rng.choice([0, 0.3, 1]), case % 2 == 1)
    if case % 3 == 0 and r > 1:
        # force a dependent row
        a = a[:-1] + (tuple(x + 2 * y for x, y in zip(a[0], a[1 % (r - 1)])),)
    return [mat(a), zeros(r, c)]


@pytest.mark.parametrize("case", [*range(12), "empty-and-zero", "fraction-pivots",
                                  "one-per-column", "degeneracy-images"])
def test_rank_matches_sympy(case):
    ops = rank_operands(case)
    assert ops
    for a in ops:
        r, c = shape(a)
        want = sympy.Matrix(r, c, [v for row in dense(a) for v in row]).rank()
        assert rank(a) == want == rank(transpose(a))


def test_degeneracy_images_are_nontrivial():
    ranked = _ground_degeneracy_images()
    # level n stacks s_0..s_{n-1} : T^n M -> T^{n+1} M, 2^n columns each,
    # and leaves the 2 = dim A (x) Abar^n (x) M normalized dimensions
    assert [shape(a) for a in ranked] == [(2, 0), (4, 2), (8, 8), (16, 24), (32, 64)]
    assert [rank(a) for a in ranked] == [0, 2, 6, 14, 30]


# -- inverse (a test-only oracle) --------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_inverse_of_unimodular(seed):
    rng = random.Random(400 + seed)
    n = rng.randint(1, 6)
    m = _unimodular(rng, n)
    inv = inverse(m)
    assert mmul(inv, m) == eye(n) == mmul(m, inv)
    assert all(type(v) is int for _, _, v in entries(inv))


def test_inverse_of_rational_matrix_and_singular():
    a = mat([[2, 1], [Fraction(1, 2), 3]])
    assert mmul(a, inverse(a)) == eye(2)
    with pytest.raises(ValueError, match="singular"):
        inverse(mat([[1, 2], [2, 4]]))


# -- exactness: a property test over the public functions --------------------

SCALARS = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 6])))


@st.composite
def dense_rows(draw, rows=None, cols=None):
    r = draw(st.integers(1, 4)) if rows is None else rows
    c = draw(st.integers(0, 4)) if cols is None else cols
    return [[draw(SCALARS) for _ in range(c)] for _ in range(r)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_public_functions_stay_exact(data):
    """Every result is in its one stored form, equals the dense formula,
    and equals (and hashes as) the same matrix built another way."""
    a = data.draw(dense_rows())
    r, k = len(a), len(a[0])
    n = data.draw(st.integers(0, 4))
    b = data.draw(dense_rows(rows=k, cols=n))
    c = data.draw(dense_rows(rows=r, cols=k))
    s = data.draw(SCALARS)
    A, B, C = mat(a), mat(b) if k else zeros(0, n), mat(c)
    products = {
        "mat": (A, a),
        "mmul": (mmul(A, B), [[sum(a[i][t] * b[t][j] for t in range(k))
                               for j in range(n)] for i in range(r)]),
        "msum": (msum(r, n, [(s, A, B), (1, C, B), (0, C, B)]),
                 [[sum((s * a[i][t] + c[i][t]) * b[t][j] for t in range(k))
                   for j in range(n)] for i in range(r)]),
        "sum": (msum(r, k, [(1, A, eye(k)), (1, C, eye(k))]),
                [[x + y for x, y in zip(u, v)] for u, v in zip(a, c)]),
        "multiple": (msum(r, k, [(s, A, eye(k))]), [[s * x for x in u] for u in a]),
        "transpose": (transpose(A), [list(col) for col in zip(*a)]),
        "assemble": (assemble(r + 1, 2 * k, [(A, 1, k, s), (C, 0, 0)]),
                     [[0] * k + [0] * k] + [[0] * 2 * k for _ in a]),
        "zeros": (zeros(r, k), [[0] * k for _ in a]),
        "eye": (eye(k), [[int(i == j) for j in range(k)] for i in range(k)]),
    }
    want = products["assemble"][1]
    for i in range(r):
        for j in range(k):
            want[i][j] += c[i][j]
            want[i + 1][k + j] += s * a[i][j]
    for name, (got, rows) in products.items():
        assert_stored(got)
        if rows:
            assert dense(got) == tuple(map(tuple, rows)), name
            assert got == mat(rows) and hash(got) == hash(mat(rows)), name
    assert is_zero(A) == all(x == 0 for u in a for x in u)
    assert nonzeros(A) == " ".join(f"({i},{j})={v}" for i, j, v in entries(A))
    assert rank(A) == sympy.Matrix(r, k, [x for u in a for x in u]).rank()
    # equal matrices built along different paths
    for other in (mmul(A, eye(k)), mmul(eye(r), A), msum(r, k, [(1, A, eye(k))]),
                  transpose(transpose(A)), mat(dense(A)),
                  assemble(r, k, [(A, 0, 0)]),
                  msum(r, k, [(Fraction(1, 2), mmul(A, eye(k)), eye(k)),
                              (Fraction(1, 2), eye(r), A)]),
                  msum(r, k, [(Fraction(1, 3), A, eye(k)),
                              (Fraction(2, 3), eye(r), A)])):
        assert_stored(other)
        assert other == A and hash(other) == hash(A) and not other != A
