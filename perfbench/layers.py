"""Per-layer metrics derived from a tracer dump, and the closed-form ledger.

Each metric names the end-to-end metric and workloads it should move, so
a change to one layer can say beforehand which numbers it expects to
change and which must stay put.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb


def _calls(key):
    return lambda t: t["calls"].get(key, 0)


def _self(key):
    return lambda t: t["self_s"].get(key, 0.0)


def _incl(key):
    return lambda t: t["incl_s"].get(key, 0.0)


def _count(key):
    return lambda t: t["counts"].get(key, 0)


def _layer_self(layer):
    return lambda t: sum(v for k, v in t["self_s"].items()
                         if k.startswith(layer + "."))


def _method_calls(layer, method):
    """Calls of `method` summed over every class of the layer."""
    def get(t):
        return sum(v for k, v in t["calls"].items()
                   if k.startswith(layer + ".") and k.count(".") == 2
                   and k.endswith("." + method))
    return get


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


def _weak_self(t):
    return sum(v for k, v in t["self_s"].items()
               if k.startswith(("bar.weak_", "bar.WeakHomElement.")))


AWFS_SPAN = ("wall_s on span_census and awfs_laws;"
             " none on bar_resolve, codescent, weak_calculus")
AWFS = "wall_s on awfs_laws; earr and cop also on span_census"
SPANS = "wall_s on span_census"
RATMAT = ("wall_s, peak_rss_mb on bar_resolve, codescent;"
          " must not worsen wall_s on weak_calculus")
DG = "wall_s on weak_calculus; less on codescent"
REPORT = "wall_s on weak_calculus (255 report lines) and awfs_laws (728)"

# name, unit, better, derive(trace), should move
METRICS = [
    ("fincat.compose.calls", "count", "lower",
     _calls("fincat.FinSetCategory.compose"), AWFS_SPAN),
    ("fincat.compose.self_s", "s", "lower",
     _self("fincat.FinSetCategory.compose"), AWFS_SPAN),
    ("fincat.eq.calls", "count", "lower",
     _calls("fincat.FinSetCategory.eq"), AWFS_SPAN),
    ("fincat.hom.calls", "count", "lower",
     _calls("fincat.FinSetCategory.hom"), AWFS_SPAN),
    ("fincat.hom.arrows", "count", "lower",
     _count("fincat.hom.arrows"), AWFS_SPAN),
    ("fincat.coproduct.calls", "count", "lower",
     _calls("fincat.FinSetCategory.coproduct"), AWFS_SPAN),
    ("fincat.comonad.calls", "count", "lower",
     _calls("fincat.comonad"), AWFS_SPAN),
    ("fincat.comonad.self_s", "s", "lower",
     _self("fincat.comonad"), AWFS_SPAN),
    ("fincat.repr.calls", "count", "lower",
     _calls("fincat.FinSetArrow.__repr__"), AWFS_SPAN),
    ("fincat.self_s", "s", "lower", _layer_self("fincat"), AWFS_SPAN),

    ("awfs.earr.calls", "count", "lower", _method_calls("awfs", "earr"), AWFS),
    ("awfs.comult.calls", "count", "lower",
     _method_calls("awfs", "comult"), AWFS),
    ("awfs.mult.calls", "count", "lower", _method_calls("awfs", "mult"), AWFS),
    ("awfs.cop.calls", "count", "lower", _method_calls("awfs", "cop"), AWFS),
    ("awfs.squares", "count", "lower",
     _count("awfs.squares_between.yields"), AWFS),
    ("awfs.square_candidates", "count", "lower",
     _count("awfs.square_candidates"), AWFS),
    ("awfs.square_yield", "ratio", "higher",
     _ratio(_count("awfs.squares_between.yields"),
            _count("awfs.square_candidates")), AWFS),
    ("awfs.squares_between.self_s", "s", "lower",
     _self("awfs.squares_between"), AWFS),
    ("awfs.validate_awfs.s", "s", "lower", _incl("awfs.validate_awfs"), AWFS),
    ("awfs.self_s", "s", "lower", _layer_self("awfs"), AWFS),

    ("spans.span_to_kleisli.calls", "count", "lower",
     _calls("spans.span_to_kleisli"), SPANS),
    ("spans.kleisli_to_span.calls", "count", "lower",
     _calls("spans.kleisli_to_span"), SPANS),
    ("spans.span_is_map.calls", "count", "lower",
     _calls("spans.span_is_map"), SPANS),
    ("spans.span_maps.candidates", "count", "lower",
     _count("spans.span_maps.candidates"), SPANS),
    ("spans.span_maps.found", "count", "lower",
     _count("spans.span_maps.found"), SPANS),
    ("spans.normalize_span.calls", "count", "lower",
     _calls("spans.normalize_span"), SPANS),
    ("spans.span_equiv.equal", "count", "higher",
     _count("spans.span_equiv.equal"), SPANS),
    ("spans.span_equiv.connected", "count", "higher",
     _count("spans.span_equiv.connected"), SPANS),
    ("spans.span_equiv.not_found", "count", "lower",
     _count("spans.span_equiv.not_found"), SPANS),
    ("spans.enumerate_spans.spans", "count", "lower",
     _count("spans.enumerate_spans.yields"), SPANS),
    ("spans.compare_hom.s", "s", "lower", _incl("spans.compare_hom"), SPANS),
    ("spans.self_s", "s", "lower", _layer_self("spans"), SPANS),

    ("ratmat.mmul.calls", "count", "lower", _calls("ratmat.mmul"), RATMAT),
    ("ratmat.mmul.self_s", "s", "lower", _self("ratmat.mmul"), RATMAT),
    ("ratmat.mmul.madds", "count", "lower",
     _count("ratmat.mmul.madds"), RATMAT),
    ("ratmat.mmul.useful_share", "ratio", "higher",
     _ratio(_count("ratmat.mmul.useful"), _count("ratmat.mmul.madds")),
     RATMAT),
    ("ratmat.mmul.fraction_share", "ratio", "lower",
     _ratio(_count("ratmat.mmul.fraction_out"),
            _count("ratmat.mmul.nonzero_out")), RATMAT),
    ("ratmat.madd.calls", "count", "lower", _calls("ratmat.madd"), RATMAT),
    ("ratmat.kron.calls", "count", "lower", _calls("ratmat.kron"), RATMAT),
    ("ratmat.kron.entries", "count", "lower",
     _count("ratmat.kron.entries"), RATMAT),
    ("ratmat.rank.calls", "count", "lower", _calls("ratmat.rank"), RATMAT),
    ("ratmat.rank.self_s", "s", "lower", _self("ratmat.rank"), RATMAT),
    ("ratmat.is_zero.calls", "count", "lower",
     _calls("ratmat.is_zero"), RATMAT),
    ("ratmat.self_s", "s", "lower", _layer_self("ratmat"), RATMAT),

    ("dg.gmap_compose.calls", "count", "lower", _calls("dg.gmap_compose"), DG),
    ("dg.gmap_add.calls", "count", "lower", _calls("dg.gmap_add"), DG),
    ("dg.tensor_map.calls", "count", "lower", _calls("dg.tensor_map"), DG),
    ("dg.tensor_map.self_s", "s", "lower", _self("dg.tensor_map"), DG),
    ("dg.graded_map.created", "count", "lower",
     _calls("dg.GradedMap.__init__"), DG),
    ("dg.is_chain_map.calls", "count", "lower", _calls("dg.is_chain_map"), DG),
    ("dg.homology_ranks.s", "s", "lower", _incl("dg.homology_ranks"), DG),
    ("dg.self_s", "s", "lower", _layer_self("dg"), DG),

    ("bar.calculus.s", "s", "lower", _incl("bar.BarCalculus.__init__"),
     "wall_s on bar_resolve, codescent, weak_calculus"),
    ("bar.face.calls", "count", "lower", _calls("bar.BarCalculus.face"),
     "wall_s on bar_resolve"),
    ("bar.face.distinct", "count", "lower", _count("bar.face.distinct"),
     "wall_s on bar_resolve"),
    ("bar.validate_bar.s", "s", "lower", _incl("bar.validate_bar"),
     "wall_s on bar_resolve"),
    ("bar.codescent.s", "s", "lower", _incl("bar.TruncatedCodescent.__init__"),
     "wall_s on codescent; also bar_resolve"),
    ("bar.codescent_validate.s", "s", "lower",
     _incl("bar.TruncatedCodescent.validate"), "wall_s on bar_resolve"),
    ("bar.bar_lali.s", "s", "lower", _incl("bar.bar_lali"),
     "wall_s on bar_resolve"),
    ("bar.normalized_level_dims.s", "s", "lower",
     _incl("bar.normalized_level_dims"), "wall_s on bar_resolve"),
    ("bar.free_ulali_factor.s", "s", "lower", _incl("bar.free_ulali_factor"),
     "wall_s on codescent"),
    ("bar.weak_compose.calls", "count", "lower", _calls("bar.weak_compose"),
     "wall_s on weak_calculus"),
    ("bar.weak_differential.calls", "count", "lower",
     _calls("bar.weak_differential"), "wall_s on weak_calculus"),
    ("bar.weak.self_s", "s", "lower", _weak_self, "wall_s on weak_calculus"),
    ("bar.self_s", "s", "lower", _layer_self("bar"),
     "wall_s on bar_resolve, codescent, weak_calculus"),

    ("report.record.calls", "count", "lower",
     _calls("report.CheckReport.record"), REPORT),
    ("report.self_s", "s", "lower", _layer_self("report"), REPORT),
    ("cli.emit_s", "s", "lower", _incl("cli._emit_text"), REPORT),
]

OVERHEAD = ("trace.overhead_share", "ratio", "lower",
            "none: qualifies the layer numbers")

UNITS = {name: unit for name, unit, *_ in METRICS}
UNITS[OVERHEAD[0]] = OVERHEAD[1]
MOVES = {name: moves for name, *_, moves in [*METRICS, OVERHEAD]}


def derive(trace: dict) -> dict:
    """Every per-layer metric, except the overhead, from a tracer dump."""
    return {name: get(trace) for name, _, _, get, _ in METRICS}


# ---------------------------------------------------------------------------
# Closed-form work ledger


def fragment_arrow_count(m: int) -> int:
    """Functions between sets of size <= m: sum over a, b of b**a."""
    return sum(b ** a for a in range(m + 1) for b in range(m + 1))


def _fibres(idx, n):
    sizes = Counter(idx)
    return [sizes.get(i, 0) for i in range(n)]


def square_count(m: int) -> int:
    """Commuting squares (h, k): f -> g over the fragment of size <= m.

    For f: A -> B and g: C -> D, fixing k leaves |g^-1(k f a)| choices of
    h(a) for each a, so the count is prod over b of
    sum over d of |g^-1(d)| ** |f^-1(b)|.
    """
    arrows = [(a, b, _fibres(idx, b)) for a in range(m + 1)
              for b in range(m + 1)
              for idx in itertools.product(range(b), repeat=a)]
    total = 0
    for _, _, f_fib in arrows:
        for _, _, g_fib in arrows:
            n = 1
            for e in f_fib:
                n *= sum(s ** e for s in g_fib)
            total += n
    return total


def span_count(a: int, b: int, s: int, bound: int) -> int:
    """Spans A <- K -> B with a split of the coreader counit, |K| <= bound.

    Over a left leg with fibre sizes n_x, each of the s witness points
    above x picks a point of its fibre (n_x ** s ways) and the right leg
    is free (b ** k), so the count is a sum over compositions of k.
    """
    total = 0
    for k in range(1, bound + 1):
        for sizes in itertools.product(range(k + 1), repeat=a):
            if sum(sizes) != k:
                continue
            ways, left = 1, k
            for n in sizes:
                ways *= comb(left, n) * n ** s
                left -= n
            total += ways * b ** k
    return total


def face_count(L: int) -> int:
    """Distinct faces d_j: T^n M -> T^{n-1} M, 0 <= j < n <= L+2.

    validate_bar asks for every one of them (its chain family) on the one
    BarCalculus of `bar resolve --trunc L`, and the calculus caches each.
    """
    return (L + 2) * (L + 3) // 2
