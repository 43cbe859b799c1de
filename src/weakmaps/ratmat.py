"""Sparse matrices over exact rational scalars.

A matrix is a `Mat`, the tuple of its rows with the column count `cols`
beside it.  Row i holds its nonzero entries (j, v) in ascending column
j, v an int when integral and a fractions.Fraction otherwise, so equal
matrices store equal rows whatever built them, and compare and hash
equal.  `mat` reads dense rows and `assemble` places blocks; every
operation touches nonzero entries only.
"""

from fractions import Fraction


class Mat(tuple):
    """The rows of a matrix with its column count `cols`."""

    def __new__(cls, rows, cols):
        m = super().__new__(cls, rows)
        m.cols = cols
        return m

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.cols == other.cols
                and tuple.__eq__(self, other))

    __ne__ = object.__ne__  # the negated __eq__, not tuple's row comparison
    __hash__ = tuple.__hash__


def _row(acc):
    """The stored row of the dict column -> value `acc`."""
    return tuple([(j, v if type(v) is int or v.denominator != 1
                   else v.numerator) for j, v in sorted(acc.items()) if v])


def mat(rows):
    """The matrix with the dense rows `rows`, all of one length."""
    return Mat([_row(dict(enumerate(r))) for r in rows],
               len(rows[0]) if rows else 0)


def zeros(r, c):
    return Mat(((),) * r, c)


def eye(n):
    return Mat([((i, 1),) for i in range(n)], n)


def shape(a):
    return len(a), a.cols


def transpose(a):
    cols = [{} for _ in range(a.cols)]
    for i, j, v in entries(a):
        cols[j][i] = v
    return Mat(map(_row, cols), len(a))


def mmul(a, b):
    """a . b: row i of it sums x * (row k of b) over row i's (k, x)."""
    if a.cols != len(b):
        raise ValueError(f"shape mismatch: {shape(a)} * {shape(b)}")
    out = []
    for row in a:
        acc = {}
        for k, x in row:
            for j, y in b[k]:
                acc[j] = acc.get(j, 0) + x * y
        out.append(_row(acc))
    return Mat(out, b.cols)


def madd(a, b):
    return assemble(*shape(a), [(a, 0, 0), (b, 0, 0)])


def smul(c, a):
    return Mat([_row({j: c * v for j, v in row}) for row in a], a.cols)


def is_zero(a):
    return not any(a)


def entries(a):
    """The nonzero entries (i, j, v) of `a`, row by row."""
    return ((i, j, v) for i, row in enumerate(a) for j, v in row)


def nonzeros(a) -> str:
    """The nonzero entries of `a` as `(i,j)=v ...`, for report sides."""
    return " ".join(f"({i},{j})={v}" for i, j, v in entries(a))


def _place(out, a, r0, c0, sign=1, b=eye(1)):
    """Add sign * (a (x) b) into the row dicts (column -> value) `out`
    at (r0, c0), forming products of nonzero entries only; returns `out`."""
    br, bc = len(b), b.cols
    bnz = [(p, [(q, sign * y) for q, y in brow]) for p, brow in enumerate(b)]
    for i, arow in enumerate(a):
        rbase = r0 + i * br
        for k, x in arow:
            cbase = c0 + k * bc
            for p, brow in bnz:
                orow = out[rbase + p]
                for q, y in brow:
                    orow[cbase + q] = orow.get(cbase + q, 0) + x * y
    return out


def assemble(rows, cols, terms):
    """The rows x cols matrix sum of sign * (a (x) b) placed at (r0, c0)
    over the terms (a, r0, c0[, sign[, b]]), sign 1 and b = 1 by default.

    Entry (i*rows(b)+p, k*cols(b)+q) of a (x) b is a[i][k] * b[p][q].
    """
    out = [{} for _ in range(rows)]
    for term in terms:
        _place(out, *term)
    return Mat(map(_row, out), cols)


def rank(a):
    """Exact rank by sparse row elimination: each row is reduced by the
    pivot rows so far, and what is left becomes one, scaled to lead with 1."""
    pivots = {}  # leading column -> the rest of its pivot row
    for row in a:
        r = dict(row)
        while r:
            lead = min(r)
            x = r.pop(lead)
            if not x:  # cancelled by an earlier reduction
                continue
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = _row({j: Fraction(v, x) for j, v in r.items()})
                break
            for j, v in p:
                r[j] = r.get(j, 0) - x * v
    return len(pivots)
