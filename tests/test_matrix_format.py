"""Only `ratmat` knows how a matrix is stored.

A matrix is a `ratmat.Mat`: sparse rows of nonzero (column, value)
pairs.  Every other module builds matrices through `ratmat` (`mat` from
dense rows, `assemble`, `eye`, `zeros`, the products) and reads them
through it (`shape`, `entries`, `nonzeros`), instead of allocating
zero-filled rows and writing entries by position, so the layout is
private to one module.  The scan flags, outside `ratmat.py`:

* a zero-filled row allocation: `[0] * n` or `(0,) * n`, either order;
* a positional matrix write: `m[i][j] = ...` or `m[i][j] += ...`;
* a use of the layout: the class `Mat` or an attribute `.cols`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weakmaps"


def _zero_row(node):
    return (isinstance(node, (ast.List, ast.Tuple)) and len(node.elts) == 1
            and isinstance(node.elts[0], ast.Constant)
            and node.elts[0].value == 0)


def _targets(node):
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def sites(tree):
    """(line, what) of every zero-row allocation, positional write and
    use of the layout, in line order."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == "Mat"
                or isinstance(node, ast.Attribute) and node.attr == "cols"):
            found.append((node.lineno, "layout"))
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and (_zero_row(node.left) or _zero_row(node.right))):
            found.append((node.lineno, "zero-filled row"))
        for t in _targets(node):
            if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Subscript):
                found.append((node.lineno, "positional write"))
    return sorted(found)


def test_scan_sees_every_form():
    src = ("a = [0] * n\nb = n * (0,)\nm[i][j] = 1\nm[i][j] += x\n"
           "t[i][j][k] = 1\nc = m.cols\nn = Mat(r, 2)\n"
           "ok = [1] * n\nd[k] = v\nrow[j] += 1\ncols = shape(m)[1]\n")
    assert [line for line, _ in sites(ast.parse(src))] == [1, 2, 3, 4, 5, 6, 7]


def test_matrices_are_built_through_ratmat():
    bad = [f"{p.name}:{line} {what}"
           for p in sorted(PACKAGE.glob("*.py")) if p.name != "ratmat.py"
           for line, what in sites(ast.parse(p.read_text(), str(p)))]
    assert not bad, "build matrices with ratmat.assemble: " + ", ".join(bad)
