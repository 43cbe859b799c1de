"""Run the weakmaps CLI in-process with every layer wrapped from outside.

Usage: python3 perfbench/tracer.py OUT.json -- <weakmaps arguments>

The program is not modified.  Before `cli.main` runs, every public function
and public method of the layer modules (plus a few named private or dunder
ones the per-layer metrics need) is replaced by a timing wrapper, and the
replacement is rebound under every name that refers to it in any weakmaps
module: `dg` and `bar` do `from .ratmat import mmul`, so patching
`ratmat.mmul` alone would miss their calls.

Each wrapper adds its duration to the caller's child time, so the self
time of a function is its duration minus the durations of the wrapped
calls it made.  Hooks that inspect arguments and results (matrix shapes,
nonzeros) run outside the timed interval and are charged to neither side.

`ratmat.mmul` is also counted a second way, at its code object (see
`count_mmul_at_code`), so that a call the rebinding missed shows up as a
difference between the two counts.
The report on stdout and the exit status are those of `cli.main`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import types
from collections import Counter
from time import perf_counter

LAYERS = ("fincat", "awfs", "spans", "ratmat", "dg", "bar", "schemas",
          "report", "cli")

# Wrapped in addition to the public names; keys are "<layer>.<qualname>".
EXTRA = {
    "fincat.FinSetArrow.__repr__",
    "dg.GradedMap.__init__",
    "bar.BarCalculus.__init__",
    "bar.TruncatedCodescent.__init__",
    "cli._emit_text",
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.incl_s = Counter()
        self.counts = Counter()
        self.faces = set()
        self._child = [0.0]  # child time of each open wrapped call; [0] is the root

    def _close(self, key, t0):
        dt = perf_counter() - t0
        self.self_s[key] += dt - self._child.pop()
        self.incl_s[key] += dt
        self._child[-1] += dt

    def _hook(self, hook, args, kwargs, result):
        h0 = perf_counter()
        hook(self, args, kwargs, result)
        self._child[-1] += perf_counter() - h0

    def wrap(self, key, fn, hook=None):
        tr = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tr.calls[key] += 1
                if hook:
                    tr._hook(hook, args, kwargs, None)
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        tr._child.append(0.0)
                        t0 = perf_counter()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tr._close(key, t0)
                        tr.counts[key + ".yields"] += 1
                        yield item
                finally:
                    gen.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr._child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._close(key, t0)
                tr.calls[key] += 1
            if hook:
                tr._hook(hook, args, kwargs, result)
            return result
        return wrapper

    def to_json(self):
        return {"calls": self.calls, "self_s": self.self_s,
                "incl_s": self.incl_s, "counts": self.counts}


# ---------------------------------------------------------------------------
# Hooks: counts taken from call arguments and results


def _hom(tr, args, kwargs, result):
    tr.counts["fincat.hom.arrows"] += len(result)


def _comonad(tr, args, kwargs, result):
    """Route calls through the comonad's callables into one key."""
    f = result.functor
    f.obj = tr.wrap("fincat.comonad", f.obj)
    f.arr = tr.wrap("fincat.comonad", f.arr)
    result.counit = tr.wrap("fincat.comonad", result.counit)
    result.comult = tr.wrap("fincat.comonad", result.comult)


def _squares_between(tr, args, kwargs, result):
    _, f, g = args
    tr.counts["awfs.square_candidates"] += len(g.dom) ** len(f.dom)


def _span_maps(tr, args, kwargs, result):
    s, t = args
    tr.counts["spans.span_maps.candidates"] += len(t.apex) ** len(s.apex)
    tr.counts["spans.span_maps.found"] += len(result)


def _span_equiv(tr, args, kwargs, result):
    kind = "not_found" if result.kind.startswith("not-found") else result.kind
    tr.counts["spans.span_equiv." + kind] += 1


def _mmul(tr, args, kwargs, result):
    a, b = args
    r, k = len(a), len(b)
    c = len(b[0]) if b else 0
    tr.counts["ratmat.mmul.madds"] += r * k * c
    if not (r and k and c):
        return
    # a product a[i][j]*b[j][l] has both factors nonzero exactly
    # nnz(column j of a) * nnz(row j of b) times
    col_nnz = [r - col.count(0) for col in zip(*a)]
    row_nnz = [c - row.count(0) for row in b]
    tr.counts["ratmat.mmul.useful"] += sum(x * y for x, y in zip(col_nnz, row_nnz))
    for row in result:
        nz = [v for v in row if v]
        tr.counts["ratmat.mmul.nonzero_out"] += len(nz)
        tr.counts["ratmat.mmul.fraction_out"] += sum(type(v) is not int for v in nz)


def _kron(tr, args, kwargs, result):
    tr.counts["ratmat.kron.entries"] += len(result) * (len(result[0]) if result else 0)


def _face(tr, args, kwargs, result):
    calc, n, j = args
    tr.faces.add((id(calc), n, j))


HOOKS = {
    "fincat.FinSetCategory.hom": _hom,
    "fincat.coreader_comonad": _comonad,
    "fincat.identity_comonad": _comonad,
    "awfs.squares_between": _squares_between,
    "spans.span_maps": _span_maps,
    "spans.span_equiv": _span_equiv,
    "ratmat.mmul": _mmul,
    "ratmat.kron": _kron,
    "bar.BarCalculus.face": _face,
}


def _mmul_at_code(a, b, _tr=None, _body=None):
    _tr.counts["ratmat.mmul.code_calls"] += 1
    _tr.counts["ratmat.mmul.code_madds"] += len(a) * len(b) * (len(b[0]) if b else 0)
    return _body(a, b)


def count_mmul_at_code(tracer: Tracer, mmul):
    """Count every execution of mmul's body, however mmul was reached.

    The body moves into a fresh function and the original function object
    gets `_mmul_at_code` as its code, with the tracer and the body as
    defaults.  Every name bound to that object, wrapped or not, now counts,
    independently of install()'s rebinding.  The count runs inside the
    wrapper's timed interval, so it is charged to mmul's self time.
    """
    body = types.FunctionType(mmul.__code__, mmul.__globals__, mmul.__name__)
    mmul.__code__ = _mmul_at_code.__code__
    mmul.__defaults__ = (tracer, body)


def _wanted(key, name):
    return not name.startswith("_") or key in EXTRA


def install(tracer: Tracer):
    """Wrap every layer and rebind each wrapped name in every module."""
    pkg = importlib.import_module("weakmaps")
    mods = {layer: importlib.import_module(f"weakmaps.{layer}")
            for layer in LAYERS}
    count_mmul_at_code(tracer, mods["ratmat"].mmul)
    replaced = {}  # id(original) -> wrapper
    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and _wanted(f"{layer}.{name}", name):
                key = f"{layer}.{name}"
                replaced[id(obj)] = tracer.wrap(key, obj, HOOKS.get(key))
            elif inspect.isclass(obj) and not name.startswith("_"):
                for attr, fn in list(vars(obj).items()):
                    key = f"{layer}.{name}.{attr}"
                    if inspect.isfunction(fn) and _wanted(key, attr):
                        setattr(obj, attr, tracer.wrap(key, fn, HOOKS.get(key)))
    for mod in (pkg, *mods.values()):
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["weakmaps.cli"]
    t0 = perf_counter()
    try:
        status = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        doc = tracer.to_json()
        doc["wall_s"] = perf_counter() - t0
        doc["counts"]["bar.face.distinct"] = len(tracer.faces)
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
