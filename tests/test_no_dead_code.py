"""Every function, class and method in the package is referenced by name.

A definition in `src/` or `tests/oracles.py` counts as used when its
name appears as a name, an attribute or an imported name anywhere in
`src/` or `tests/` outside its own definition.  Matching by name alone
is generous: one call of any `validate` keeps every `validate` alive, so
some dead code can pass.  Dunder methods are called by the language
and are exempt.  A local name that a function assigns and never reads
fails as well.
`test_reachability.py` is the runtime counterpart, line by line: it
requires every function in `src/`, and every statement in a function
body, to run under a subcommand, unless a listed reason lets it stay.
One primitive per operation: no run of 4 consecutive statements over 6
or more lines may appear twice in `src/` once every name and constant
is blanked.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weakmaps"
ORACLE_MODULE = ROOT / "tests" / "oracles.py"
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
        if PACKAGE not in path.parents and path != ORACLE_MODULE:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, DEFS) or re.fullmatch(r"__\w+__", node.name):
                continue
            if refs[node.name] - _references(node)[node.name] == 0:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not unused, "no reference to: " + ", ".join(unused)


def _calls(node, name):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name)


def class_fields(node):
    """(line, name) of each field that the class `node` declares: an
    annotated class field, a `name = _tuplegetter(...)`, and each name
    that a `namedtuple("Name", "...")` base lists."""
    found = [(f.lineno, f.target.id) for f in node.body
             if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    found += [(f.lineno, t.id) for f in node.body
              if isinstance(f, ast.Assign) and _calls(f.value, "_tuplegetter")
              for t in f.targets if isinstance(t, ast.Name)]
    found += [(b.lineno, name) for b in node.bases if _calls(b, "namedtuple")
              for name in b.args[1].value.split()]
    return found


def test_class_fields_sees_every_idiom():
    tree = ast.parse(
        "class A(Value, namedtuple('A', 'p q')):\n"
        "    __slots__ = ()\n"
        "    r = _tuplegetter(2, 'doc')\n"
        "    s: int\n"
        "    t = 1\n")
    assert class_fields(tree.body[0]) == [(4, "s"), (3, "r"), (1, "p"), (1, "q")]


def test_every_instance_attribute_is_read():
    """An attribute that `src/` assigns on `self`, or declares as a class
    field (see `class_fields`), is read somewhere by name.

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
                unread += [f"{path.relative_to(ROOT)}:{line} {name}"
                           for line, name in class_fields(node) if not reads[name]]
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


def _shape(node):
    """`node` as nested tuples, with every name and constant blanked."""
    if isinstance(node, (ast.Name, ast.Constant)):
        return type(node).__name__
    if isinstance(node, ast.AST):
        return (type(node).__name__,
                *(_shape(value) for _, value in ast.iter_fields(node)))
    if isinstance(node, list):
        return tuple(_shape(value) for value in node)
    return node


def _statement_runs(tree, size):
    """(enclosing def, statements) of every run of `size` consecutive
    statements in one body of `tree`."""
    def visit(node, owner):
        for _, value in ast.iter_fields(node):
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                for i in range(len(value) - size + 1):
                    yield owner, value[i:i + size]
        for child in ast.iter_child_nodes(node):
            yield from visit(child, child.name if isinstance(child, DEFS) else owner)
    return visit(tree, "<module>")


def repeated_blocks(trees, size=4, min_lines=6):
    """Pairs of "path:line def" of two runs of `size` consecutive
    statements, anywhere in `trees` ({path: module}), that span at least
    `min_lines` lines, do not overlap, do not start with a docstring, and
    are equal once every name and constant is blanked."""
    seen, pairs = {}, []
    for path, tree in trees.items():
        for owner, run in _statement_runs(tree, size):
            start, end = run[0].lineno, run[-1].end_lineno
            first = run[0]
            if end - start + 1 < min_lines or (
                    isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                continue
            label = f"{path}:{start} {owner}"
            earlier = seen.setdefault(_shape(run), [])
            pairs += [(other, label) for p, s, e, other in earlier
                      if p != path or e < start or end < s]
            earlier.append((path, start, end, label))
    return pairs


def test_no_block_of_statements_is_repeated():
    trees = {str(p.relative_to(ROOT)): ast.parse(p.read_text(), str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    pairs = repeated_blocks(trees)
    assert not pairs, "repeated blocks: " + ", ".join(
        f"{a} = {b}" for a, b in pairs)


def test_repeated_blocks_blanks_names_and_constants_only():
    # four statements over six lines; keyword names are not blanked
    block = ("    p = sub.add_parser({0!r},\n"
             "                       help='x')\n"
             "    q = p.add_subparsers(dest='action')\n"
             "    c = q.add_parser({1!r},\n"
             "                     help='y')\n"
             "    c.set_defaults(tool={0!r})\n")
    source = ("def f(sub):\n    'doc'\n" + block.format("a", "b")
              + block.format("c", "d") + "def g(sub):\n" + block.format("e", "f"))
    assert repeated_blocks({"m.py": ast.parse(source)}) == [
        ("m.py:3 f", "m.py:9 f"), ("m.py:3 f", "m.py:16 g"),
        ("m.py:9 f", "m.py:16 g")]
    renamed = ast.parse(source.replace("help='y'", "metavar='y'", 1))
    assert repeated_blocks({"m.py": renamed}) == [("m.py:9 f", "m.py:16 g")]
    assert repeated_blocks({"m.py": ast.parse(source)}, min_lines=7) == []
    # a run that starts with a docstring is left out
    fn = "def {0}():\n    '''one\n    two\n    '''\n    a = 1\n    b = 2\n    return a + b\n"
    assert repeated_blocks({"m.py": ast.parse(fn.format("f") + fn.format("g"))}) == []
    call = fn.replace("    '''one", "    f('''one").replace("    '''\n", "    ''')\n")
    assert repeated_blocks({"m.py": ast.parse(call.format("f") + call.format("g"))}) == [
        ("m.py:2 f", "m.py:9 g")]
