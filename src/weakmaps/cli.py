"""Batch driver: load instance files, run validation suites, emit reports.

Output is deterministic: a header naming the subcommand, the effective
configuration and the seed, then one line per checked equation, optional
tables, and a summary.  Exit status is a pure function of the report:
0 with no FAIL lines (TRUNCATION-EXEMPT does not fail), 1 otherwise,
and 2 for usage errors, schema errors and input errors (input that loads
but cannot be used), printed to stderr with no partial report.  When the
reader closes stdout early, the rest of the report is dropped and the
exit status is still the report's.  Each handler imports the layers it
calls, so a subcommand loads only those and `--help` none of them.
"""

import argparse
import os
import sys


def _positive(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return n


def _size(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("expected a size >= 0")
    return n


def _fmt_dims(d) -> str:
    return "{" + ", ".join(f"{k}: {d[k]}" for k in sorted(d)) + "}"


def _comonad_spec(cat, spec):
    import re
    from . import SchemaError
    from .fincat import canonical_set, coreader_comonad, identity_comonad
    m = re.fullmatch(r"identity|coreader:S=(\d+)", spec)
    if not m:
        raise SchemaError(
            f"--comonad: unknown spec {spec!r} (expected identity or coreader:S=N)")
    if spec == "identity":
        return identity_comonad(cat)
    if not int(m.group(1)):
        raise SchemaError("--comonad.S: expected a nonempty string list")
    return coreader_comonad(cat, canonical_set(int(m.group(1)), "s"))


def _dg_inputs(ns):
    """(config, algebra, module, laws) from --dgalgebra/--builtin,
    --dgmodule/--module and --trunc; `laws` holds the algebra and module
    law checks.  A run over input that breaks them reports their FAIL
    lines and stops there.  `schemas` loads only to read a file."""
    from .bar import builtin_algebra, builtin_module
    cfg = {"trunc": str(ns.trunc)}
    if ns.dgalgebra:
        from . import schemas
        cfg["dgalgebra"] = ns.dgalgebra
        alg = schemas.load_algebra(schemas.load_file(ns.dgalgebra))
    else:
        cfg["builtin"] = ns.builtin
        alg = builtin_algebra(ns.builtin)
    if ns.dgmodule:
        from . import schemas
        cfg["dgmodule"] = ns.dgmodule
        mod = schemas.load_module(schemas.load_file(ns.dgmodule), alg)
    else:
        cfg["module"] = ns.module
        mod = builtin_module(alg, ns.module)
    laws = mod.validate(alg.validate())
    return cfg, alg, mod, laws


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (config, report, tables) where tables
# is a list of (title, [(key, value), ...]) pairs


def _run_validate(ns):
    from . import SchemaError, schemas
    from .fincat import (FinSetCategory, finset_fragment, validate_category,
                         validate_comonad, validate_monad)
    from .report import CheckReport
    rep = CheckReport()
    cfg = {}
    cat = None
    if ns.category:
        cfg["category"] = ns.category
        cat = schemas.load_category(schemas.load_file(ns.category))
        validate_category(cat, cat.objects, rep)
    for kind, path, load, check in (
            ("comonad", ns.comonad, schemas.load_comonad, validate_comonad),
            ("monad", ns.monad, schemas.load_monad, validate_monad)):
        if not path:
            continue
        cfg[kind] = path
        data = schemas.load_file(path)
        if cat is not None:
            eff = load(data, cat)
            check(cat, eff, cat.objects, rep)
        else:
            size = ns.finset_max or 2
            cfg["finset-max"] = str(size)
            fin = FinSetCategory()
            eff = load(data, fin)
            check(fin, eff, finset_fragment(size), rep)
    if ns.finset_max is not None and "finset-max" not in cfg:
        raise SchemaError("--finset-max: no (co)monad runs on finite sets")
    alg = None
    if ns.dgalgebra:
        cfg["dgalgebra"] = ns.dgalgebra
        alg = schemas.load_algebra(schemas.load_file(ns.dgalgebra))
        alg.validate(rep)
    if ns.dgmodule:
        if alg is None:
            raise SchemaError("--dgmodule needs --dgalgebra for the action")
        cfg["dgmodule"] = ns.dgmodule
        schemas.load_module(schemas.load_file(ns.dgmodule), alg).validate(rep)
    if ns.complex:
        cfg["complex"] = ns.complex
        # the loader rejects d.d != 0 with exit 2, so nothing is left to check
        schemas.load_complex(schemas.load_file(ns.complex))
    if ns.gradedmap:
        from .dg import chain_sides
        cfg["gradedmap"] = ns.gradedmap
        g = schemas.load_gradedmap(schemas.load_file(ns.gradedmap))
        rep.record("gradedmap.chain", os.path.basename(ns.gradedmap),
                   *chain_sides(g))
    if not cfg:
        raise SchemaError("validate: no input files given")
    return cfg, rep, []


def _run_awfs_check(ns):
    from . import SchemaError
    from .awfs import PSplitEpiAwfs, validate_awfs
    from .fincat import FinSetCategory, identity_comonad
    from .report import CheckReport
    rep = CheckReport()
    cat = FinSetCategory()
    cfg = {"builtin": ns.builtin, "finset-max": str(ns.finset_max)}
    if ns.builtin == "splitepi":  # the split-epi system is P = Id
        if ns.comonad is not None:
            raise SchemaError("--comonad: splitepi takes no comonad")
        comonad = identity_comonad(cat)
    else:
        cfg["comonad"] = ns.comonad or "coreader:S=2"
        comonad = _comonad_spec(cat, cfg["comonad"])
    validate_awfs(PSplitEpiAwfs(cat, comonad), ns.finset_max, rep)
    return cfg, rep, []


def _run_weakmaps_compare(ns):
    from .awfs import PSplitEpiAwfs
    from .fincat import FinSetCategory
    from .report import CheckReport
    from .spans import compare_hom
    rep = CheckReport()
    cat = FinSetCategory()
    cfg = {"comonad": ns.comonad, "A": str(ns.a_size), "B": str(ns.b_size),
           "bound": str(ns.bound), "zigzag": str(ns.zigzag)}
    aw = PSplitEpiAwfs(cat, _comonad_spec(cat, ns.comonad))
    res = compare_hom(aw, ns.a_size, ns.b_size, ns.bound, reach=ns.zigzag > 0,
                      report=rep)
    return cfg, rep, [
        ("counts", [("co-Kleisli arrows", str(res.kleisli_count)),
                    ("bounded spans", str(res.span_count)),
                    ("span classes", str(res.span_class_count))]),
        ("classes", [(f"kappa={c.kappa}", f"count={c.count}")
                     for c in res.classes]),
    ]


def _run_bar_resolve(ns):
    from .bar import (TruncatedCodescent, bar_lali, normalized_level_dims,
                      validate_bar)
    from .dg import homology_ranks
    cfg, _, mod, rep = _dg_inputs(ns)
    if not rep.ok:
        return cfg, rep, []
    calc = mod.calculus(ns.trunc)
    validate_bar(calc, rep)
    t = TruncatedCodescent(calc)
    if not t.validate(rep).ok:
        return cfg, rep, []  # bar_lali reads abar, built on A (x) |X|
    bar_lali(t, rep)
    table, _ = normalized_level_dims(t, rep)
    tables = [("levels", [(f"dim N(X_{n})", _fmt_dims(d))
                          for n, d in enumerate(table)])]
    tables.append(("total", [("dims", _fmt_dims(t.total.dims))]))
    hom = homology_ranks(t.total, range(ns.trunc))
    tables.append(("homology", [(f"H_{k}", str(hom[k]))
                                for k in range(ns.trunc)]))
    return cfg, rep, tables


def _run_dg_check(ns):
    import random
    from .bar import (random_weak, weak_compose, weak_differential,
                      weak_identity, weak_sum)
    cfg, alg, mod, rep = _dg_inputs(ns)
    cfg["trials"] = str(ns.trials)
    if not rep.ok:
        return cfg, rep, []
    L = ns.trunc
    one = weak_identity(mod, L)
    for i in range(ns.trials):
        trial_seed = ns.seed * 1000003 + i
        rng = random.Random(trial_seed)
        sub = f"{alg.name}/{mod.name} seed={trial_seed}"
        f = random_weak(rng, mod, mod, rng.randrange(-1, 2), L)
        g = random_weak(rng, mod, mod, rng.randrange(-1, 2), L)
        h = random_weak(rng, mod, mod, rng.randrange(-1, 2), L)
        dd = weak_differential(weak_differential(f))
        rep.record("dg.ddzero", sub, dd.is_zero(), dd, 0)
        lhs = weak_differential(weak_compose(g, f))
        rhs = weak_sum([(1, weak_compose(weak_differential(g), f)),
                        ((-1) ** (g.deg % 2),
                         weak_compose(g, weak_differential(f)))])
        rep.eq("dg.leibniz", sub, lhs, rhs)
        rep.eq("dg.assoc", sub,
               weak_compose(h, weak_compose(g, f)),
               weak_compose(weak_compose(h, g), f))
        rep.eq("dg.unit", sub, (weak_compose(one, f), weak_compose(f, one)),
               (f, f))
    return cfg, rep, []


def _demo_lali(ns, alg, mod):
    """The built-in acyclic fibration onto the module, twisted whenever
    the module carrier is the algebra itself (so higher coherence
    components are nonzero)."""
    from .bar import nonequivariant_twist, thickened_lali
    twist = None
    if not ns.plain and mod.cx == alg.cx:
        twist = nonequivariant_twist(alg)
    return thickened_lali(mod, twist=twist), ("plain" if twist is None
                                              else "twisted")


def _load_lali(ns):
    """(config, M, (B, g, f0, eps0), laws) for a lali B -> M; `laws`
    holds the law checks of the algebra, M and B.  B is checked and the
    demo lali built only if the algebra and M pass; else parts may be None."""
    cfg, alg, mod, laws = _dg_inputs(ns)
    parts = None
    if ns.lali:
        from . import schemas
        cfg["lali"] = ns.lali
        parts = schemas.load_lali(schemas.load_file(ns.lali), alg, mod)
    elif laws.ok:
        parts, cfg["demo"] = _demo_lali(ns, alg, mod)
    if laws.ok:
        parts[0].validate(laws)
    return cfg, mod, parts, laws


def _run_lift_lali(ns):
    from .bar import lift_ulali
    from .report import CheckReport
    cfg, mod, parts, laws = _load_lali(ns)
    if not laws.ok:
        return cfg, laws, []
    modB, g, f0, eps0 = parts
    rep = CheckReport()
    f, eps, _ = lift_ulali(modB, mod, g, f0, eps0, ns.trunc, rep)
    if f is None:
        return cfg, rep, []
    tables = [("components", [
        ("f nonzero levels",
         str([n for n, c in enumerate(f.comps) if not c.is_zero()])),
        ("eps nonzero levels",
         str([n for n, c in enumerate(eps.comps) if not c.is_zero()])),
    ])]
    return cfg, rep, tables


def _run_factor_ulali(ns):
    from .bar import TruncatedCodescent, free_ulali_factor
    from .dg import is_chain_map
    from .report import CheckReport
    cfg, mod, parts, laws = _load_lali(ns)
    if not laws.ok:
        return cfg, laws, []
    modB, g, f0, eps0 = parts
    rep = CheckReport()
    t = TruncatedCodescent(mod.calculus(ns.trunc))
    h, _ = free_ulali_factor(t, modB, g, f0, eps0, rep)
    tables = [("comparison", [
        ("chain map", str(is_chain_map(h))),
        ("nonzero", str(not h.is_zero())),
    ])]
    return cfg, rep, tables


# ---------------------------------------------------------------------------
# Argument parsing and report emission


def _add_dg_inputs(p, default_module):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--dgalgebra", metavar="FILE",
                   help="dg-algebra instance file")
    g.add_argument("--builtin",
                   choices=("rationals", "dual_numbers", "exterior"),
                   default="dual_numbers", help="built-in algebra")
    m = p.add_mutually_exclusive_group()
    m.add_argument("--dgmodule", metavar="FILE", help="dg-module instance file")
    m.add_argument("--module", choices=("ground", "free"),
                   default=default_module, help="built-in module")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weakmaps",
        description="Verification workbench for algebraic weak factorisation"
                    " systems, weak-map categories, and truncated bar"
                    " resolutions, all in exact arithmetic.")
    sub = ap.add_subparsers(dest="group", required=True)

    def command(tool, helps, handler):
        """The parser of `weakmaps TOOL` (a group, or a group and its
        action, with `helps` their help lines) and its common options."""
        words = tool.split()
        p = sub.add_parser(words[0], help=helps[0])
        if len(words) == 2:
            p = p.add_subparsers(dest="action", required=True).add_parser(
                words[1], help=helps[1])
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized property suites (default 0)")
        p.set_defaults(handler=handler, tool=tool)
        return p

    c = command("validate", ["validate instance files"], _run_validate)
    for kind in ("category", "comonad", "monad", "dgalgebra", "dgmodule",
                 "complex", "gradedmap"):
        c.add_argument(f"--{kind}", metavar="FILE")
    c.add_argument("--finset-max", type=_positive,
                   help="fragment size for builtin (co)monads (default 2)")

    c = command("awfs check", ["factorisation system suites",
                               "exhaustive law suite on a fragment"],
                _run_awfs_check)
    c.add_argument("--builtin", choices=("splitepi", "psplitepi"),
                   default="splitepi")
    c.add_argument("--comonad",
                   help="comonad spec for psplitepi (identity|coreader:S=N,"
                        " default coreader:S=2)")
    c.add_argument("--finset-max", type=_positive, default=3)

    c = command("weakmaps compare", ["weak-map category suites",
                                     "census of both hom presentations"],
                _run_weakmaps_compare)
    c.add_argument("--comonad", default="coreader:S=2")
    c.add_argument("--A", dest="a_size", type=_size, default=1,
                   help="source size (default 1)")
    c.add_argument("--B", dest="b_size", type=_size, default=2,
                   help="target size (default 2)")
    c.add_argument("--bound", type=_positive, default=6,
                   help="apex bound for span enumeration (default 6)")
    c.add_argument("--zigzag", type=_size, default=4,
                   help="0 skips canonical reachability; any depth >= 1"
                        " checks it, by one span map per span")

    c = command("bar resolve", ["bar resolution suites",
                                "codescent dims and homology ranks"],
                _run_bar_resolve)
    _add_dg_inputs(c, "ground")
    c.add_argument("--trunc", type=_positive, default=5,
                   help="truncation level L (default 5)")

    c = command("dg check", ["coherent-map algebra suites",
                             "seeded random property suites"], _run_dg_check)
    _add_dg_inputs(c, "ground")
    c.add_argument("--trunc", type=_positive, default=4)
    c.add_argument("--trials", type=_positive, default=25,
                   help="random instances per law (default 25)")

    for tool, helps, handler in (
            ("lift lali", ["coherent lifting", "lift a strict contraction to"
                           " a coherent one"], _run_lift_lali),
            ("factor ulali", ["factorisation through the resolution",
                              "strict comparison map out of the resolution"],
             _run_factor_ulali)):
        c = command(tool, helps, handler)
        _add_dg_inputs(c, "free")
        c.add_argument("--trunc", type=_positive, default=4)
        g = c.add_mutually_exclusive_group()
        g.add_argument("--lali", metavar="FILE",
                       help="lali instance file (default: built-in fibration)")
        g.add_argument("--plain", action="store_true",
                       help="keep the built-in fibration untwisted")
    return ap


def _emit_text(out, tool, seed, cfg, rep, tables):
    out.write(f"# tool: weakmaps {tool}\n")
    pairs = " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    out.write(f"# config: {pairs}\n")
    out.write(f"# seed: {seed}\n")
    for line in rep.lines():
        out.write(line + "\n")
    for title, rows in tables:
        out.write(f"TABLE {title}\n")
        for k, val in rows:
            out.write(f"  {k} = {val}\n")
    out.write(rep.summary_line() + "\n")


def _emit_json(out, tool, seed, cfg, rep, tables):
    import json
    doc = {
        "tool": f"weakmaps {tool}",
        "config": cfg,
        "seed": seed,
        "report": rep.to_json(),
        "tables": {title: {k: val for k, val in rows}
                   for title, rows in tables},
    }
    out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    from . import InputError, SchemaError
    ns = build_parser().parse_args(argv)
    try:
        cfg, rep, tables = ns.handler(ns)
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return 2
    except InputError as e:
        # structurally unusable input that got past the schema layer
        print(f"input error: {e}", file=sys.stderr)
        return 2
    cfg["format"] = ns.format
    emit = _emit_json if ns.format == "json" else _emit_text
    try:
        emit(sys.stdout, ns.tool, ns.seed, cfg, rep, tables)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so the
        # flush at exit stays quiet, and keep the report's status
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
