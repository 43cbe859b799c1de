"""Every function, class and method in the package is referenced by name.

A definition counts as used when its name appears as a name, an
attribute or an imported name anywhere in `src/` or `tests/` outside its
own definition.  Matching by name alone is generous: one call of any
`validate` keeps every `validate` alive, so some dead code can pass.
Dunder methods are called by the language and are exempt.  A local
name that a function assigns and never reads fails as well.
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


def dead_locals(tree):
    """(line, function, name) of every name that a function binds by a
    plain assignment (`x = ...`, `x: T = ...`) and never loads, its
    nested functions included.  Loop and unpacking targets, and names a
    function declares `global` or `nonlocal`, are exempt."""
    dead = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own, stack = [], list(fn.body)
        while stack:  # the statements of fn, not those of nested defs
            node = stack.pop()
            if isinstance(node, DEFS):
                continue
            own.append(node)
            stack.extend(ast.iter_child_nodes(node))
        shared = {n for node in own if isinstance(node, (ast.Global, ast.Nonlocal))
                  for n in node.names}
        loads = {n.id for n in ast.walk(fn)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in own:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            dead += [(t.lineno, fn.name, t.id) for t in targets
                     if isinstance(t, ast.Name)
                     and t.id not in loads and t.id not in shared]
    return sorted(dead)


def test_every_local_assignment_is_read():
    dead = [f"{p.relative_to(ROOT)}:{line} {fn}: {name}"
            for p in sorted(PACKAGE.glob("*.py"))
            for line, fn, name in dead_locals(ast.parse(p.read_text(), str(p)))]
    assert not dead, "assigned and never read: " + ", ".join(dead)


def test_dead_locals_finds_only_plain_assignments():
    tree = ast.parse(
        "def f(xs):\n"
        "    unused = 1\n"
        "    kept: int = 2\n"
        "    typed: int = 3\n"
        "    a, b = xs\n"
        "    for x in xs:\n"
        "        pass\n"
        "    def g():\n"
        "        inner = kept\n"
        "    return g\n")
    assert dead_locals(tree) == [(2, "f", "unused"), (4, "f", "typed"),
                                 (9, "g", "inner")]
