"""Every function, class and method in the package is referenced by name.

A definition counts as used when its name appears as a name, an
attribute or an imported name anywhere in `src/` or `tests/` outside its
own definition.  Matching by name alone is generous: one call of any
`validate` keeps every `validate` alive, so some dead code can pass.
Dunder methods are called by the language and are exempt.
`test_reachability.py` is the runtime counterpart, line by line: it
requires every function in `src/`, and every statement in a function
body, to run under a subcommand, unless a listed reason lets it stay.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weakmaps"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree):
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.split(".")[-1]] += 1
    return refs


def test_every_definition_has_a_reference():
    trees = {p: ast.parse(p.read_text(), str(p))
             for d in (ROOT / "src", ROOT / "tests") for p in sorted(d.rglob("*.py"))}
    refs = Counter()
    for tree in trees.values():
        refs.update(_references(tree))
    unused = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, DEFS) or re.fullmatch(r"__\w+__", node.name):
                continue
            if refs[node.name] - _references(node)[node.name] == 0:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not unused, "no reference to: " + ", ".join(unused)


def test_every_instance_attribute_is_read():
    """An attribute that `src/` assigns on `self`, or declares as an
    annotated class field (a dataclass field), is read somewhere by name.

    Reads are attribute loads anywhere in `src/` or `tests/`; as above,
    matching by name alone is generous."""
    trees = {p: ast.parse(p.read_text(), str(p))
             for d in (ROOT / "src", ROOT / "tests") for p in sorted(d.rglob("*.py"))}
    reads = Counter(node.attr for tree in trees.values() for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load))
    unread = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                    and not reads[node.attr]):
                unread.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.attr}")
            if isinstance(node, ast.ClassDef):
                unread += [f"{path.relative_to(ROOT)}:{f.lineno} {f.target.id}"
                           for f in node.body if isinstance(f, ast.AnnAssign)
                           and isinstance(f.target, ast.Name)
                           and not reads[f.target.id]]
    assert not unread, "never read: " + ", ".join(unread)
