"""Small matrices over exact rational scalars.

A matrix is a tuple of row tuples whose entries are Python ints or
fractions.Fraction; mixed arithmetic stays exact.  A 0-row or 0-column
matrix cannot carry its other dimension, so `assemble` takes the shape
and is the one constructor of placed blocks, and the graded-map layer
only stores blocks whose shapes are nonzero on both sides.

Storage is dense but the products are not: `mmul` and `assemble`
multiply nonzero entries only.  Leaving out products with a zero factor
gives an equal exact sum, so results compare and hash as the dense
formulas would.
"""

from __future__ import annotations

from fractions import Fraction


def zeros(r, c):
    return tuple((0,) * c for _ in range(r))


def eye(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def shape(a):
    return (len(a), len(a[0]) if a else 0)


def transpose(a):
    return tuple(zip(*a))


def mmul(a, b):
    if a and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {shape(a)} * {shape(b)}")
    c = len(b[0]) if b else 0
    bnz = {}  # k -> nonzero (j, b[k][j]), built when row k of b is first hit
    out = []
    for row in a:
        acc = [0] * c
        if any(row):
            for k, x in enumerate(row):
                if x:
                    nz = bnz.get(k)
                    if nz is None:
                        nz = bnz[k] = [(j, y) for j, y in enumerate(b[k]) if y]
                    for j, y in nz:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def madd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def smul(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def is_zero(a):
    return all(x == 0 for row in a for x in row)


def nonzeros(a) -> str:
    """The nonzero entries of `a` as `(i,j)=v ...`, for report sides."""
    return " ".join(f"({i},{j})={v}" for i, row in enumerate(a)
                    for j, v in enumerate(row) if v)


def _place(out, a, r0, c0, sign=1, b=((1,),)):
    """Add sign * (a (x) b) into the list of lists `out` at (r0, c0).

    Only products of two nonzero entries are touched.  Returns `out`.
    """
    br, bc = len(b), len(b[0]) if b else 0
    bnz = [(p, [(q, sign * y) for q, y in enumerate(brow) if y])
           for p, brow in enumerate(b)]
    for i, arow in enumerate(a):
        rbase = r0 + i * br
        for k, x in enumerate(arow):
            if x:
                cbase = c0 + k * bc
                for p, brow in bnz:
                    orow = out[rbase + p]
                    for q, y in brow:
                        orow[cbase + q] += x * y
    return out


def assemble(rows, cols, terms):
    """The rows x cols matrix sum of sign * (a (x) b) placed at (r0, c0)
    over the terms (a, r0, c0[, sign[, b]]), sign 1 and b = 1 by default.

    Entry (i*rows(b)+p, k*cols(b)+q) of a (x) b is a[i][k] * b[p][q].
    """
    out = [[0] * cols for _ in range(rows)]
    for term in terms:
        _place(out, *term)
    return tuple(map(tuple, out))


def _rref(a):
    """Gauss-Jordan over the rationals; exact, no pivot tolerance.

    Returns the nonzero rows of the reduced row echelon form of `a`, as
    lists of Fractions with the pivot rows first, and the rank.
    """
    rows = [[Fraction(x) for x in row] for row in a if any(x != 0 for x in row)]
    r = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = 1 / prow[col]
        rows[r] = [v * inv for v in prow]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        r += 1
    return rows, r


def rank(a):
    return _rref(a)[1]

