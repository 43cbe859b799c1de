"""The immutable value types of the FinSet layers are tuples, each a
`fincat.Value` over a `namedtuple`: arrows, coproduct and pullback data,
co-Kleisli arrows, algebras, spans, sketches and census results.  Each
equals only a value of its own class, equal values hash alike, no
attribute can be set, and the repr is the `Name(field=value, ...)` format
that failing report items print, or the type's own (an arrow prints its
graph).  Each expected repr of a former frozen dataclass below is the
string the dataclass printed.  The functor, comonad and monad records
stay mutable, since a tracer rebinds their callables."""

import pytest

from weakmaps.awfs import (
    LCoalgebraArrow,
    RAlgebraArrow,
    Sketch,
    SketchTriangle,
    TAlgebra,
    TSplitMono,
)
from weakmaps.fincat import (
    ComonadData,
    CoproductData,
    FinSetArrow,
    FinSetCategory,
    FunctorData,
    KleisliArrow,
    MonadData,
    PullbackData,
)
from weakmaps.report import CheckReport
from weakmaps.spans import ASpan, HomComparison, SpanClass
from oracles import SpanEquivResult, SpanZigzag, SplitEpiAwfs

C = FinSetCategory()
AW = SplitEpiAwfs(C)
A, B = ("a0",), ("b0", "b1")
F = FinSetArrow(A, B, (1,))
ONE_A = C.identity(A)
COP = C.coproduct(A, B)  # cached: each row below rebuilds it from its fields
# a report compares by identity, so equal census results share one
REPORT = CheckReport()
# a MonadData prints the addresses of its callables; the value types
# print whatever their fields hold, so a stand-in keeps the repr fixed
MONAD = "T"

ALG = "RAlgebraArrow(arrow={a0}->{a0}[a0], witness={a0}->{a0}[a0])"
SPAN = f"ASpan(left={ALG}, right={{a0}}->{{b0,b1}}[b1])"
ZIGZAG = f"SpanZigzag(spans=({SPAN}, {SPAN}), maps=({{a0}}->{{a0}}[a0],), dirs=('fwd',))"
MONO = "TSplitMono(monad='T', j={a0}->{a0}[a0], k={a0}->{a0}[a0])"
TRIANGLE = f"SketchTriangle(mono={MONO}, phi={{a0}}->{{b0,b1}}[b1])"
ONE_B = "{b0,b1}->{b0,b1}[b0,b1]"
PAIR = "{(a0,b1)}"


def values():
    """One value of each type with its expected repr; a second call
    builds equal values that are distinct objects."""
    alg = RAlgebraArrow(AW, ONE_A, ONE_A)
    span = ASpan(alg, F)
    zz = SpanZigzag((span, span), (ONE_A,), ("fwd",))
    mono = TSplitMono(MONAD, ONE_A, ONE_A)
    triangle = SketchTriangle(mono, F)
    return [
        (FinSetArrow(A, B, (1,)), "{a0}->{b0,b1}[b1]"),
        (CoproductData(COP.obj, COP.inl, COP.inr),
         "CoproductData(obj=('L:a0', 'R:b0', 'R:b1'),"
         " inl={a0}->{L:a0,R:b0,R:b1}[L:a0], inr={b0,b1}->{L:a0,R:b0,R:b1}[R:b0,R:b1])"),
        (C.pullback(F, C.identity(B)),
         f"PullbackData(f={{a0}}->{{b0,b1}}[b1], g={ONE_B}, obj=('(a0,b1)',),"
         f" p1={PAIR}->{{a0}}[a0], p2={PAIR}->{{b0,b1}}[b1])"),
        (HomComparison(4, 7, 1, (SpanClass((0, 1), 3),), REPORT),
         "HomComparison(kleisli_count=4, span_count=7, span_class_count=1,"
         " classes=(SpanClass(kappa=(0, 1), count=3),))"),
        (KleisliArrow(A, B, F), "kl[{a0}->{b0,b1}; {a0}->{b0,b1}[b1]]"),
        (alg, ALG),
        (LCoalgebraArrow(AW, F, FinSetArrow(B, AW.E(F), (1, 2))),
         "LCoalgebraArrow(arrow={a0}->{b0,b1}[b1],"
         " structure={b0,b1}->{L:a0,R:b0,R:b1}[R:b0,R:b1])"),
        (span, SPAN),
        (SpanClass((0, 1), 3), "SpanClass(kappa=(0, 1), count=3)"),
        (zz, ZIGZAG),
        (SpanEquivResult("connected", zz),
         f"SpanEquivResult(kind='connected', zigzag={ZIGZAG})"),
        (SpanEquivResult("not-found-within-bounds", None),
         "SpanEquivResult(kind='not-found-within-bounds', zigzag=None)"),
        (TAlgebra(MONAD, A, ONE_A),
         "TAlgebra(monad='T', obj=('a0',), act={a0}->{a0}[a0])"),
        (mono, MONO),
        (triangle, TRIANGLE),
        (Sketch(B, (triangle,)), f"Sketch(obj=('b0', 'b1'), triangles=({TRIANGLE},))"),
    ]


IDS = [type(v).__name__ for v, _ in values()]


@pytest.mark.parametrize("i", range(len(IDS)), ids=IDS)
def test_value_equals_only_its_own_class(i):
    v, w = values()[i][0], values()[i][0]
    twin = type("Twin", (type(v),), {"__slots__": ()})
    assert v is not w and v == w and not v != w
    for other in (tuple(v), tuple.__new__(twin, tuple(v))):
        assert v != other and other != v and not v == other


@pytest.mark.parametrize("i", range(len(IDS)), ids=IDS)
def test_equal_values_hash_alike(i):
    v, w = values()[i][0], values()[i][0]
    assert hash(v) == hash(w)
    assert {v: 1}[w] == 1


@pytest.mark.parametrize("i", range(len(IDS)), ids=IDS)
def test_value_holds_no_attribute(i):
    v = values()[i][0]
    assert not hasattr(v, "__dict__")
    for name in (v._fields[-1], "extra"):
        with pytest.raises(AttributeError):
            setattr(v, name, None)


@pytest.mark.parametrize("i", range(len(IDS)), ids=IDS)
def test_value_repr_keeps_the_dataclass_format(i):
    v, expected = values()[i]
    assert repr(v) == str(v) == expected
    assert " object at 0x" not in repr(v)


def test_functor_and_comonad_records_stay_mutable():
    fun = FunctorData(str, str)
    com = ComonadData(fun, str, str)
    assert (fun.name, com.name, MonadData(fun, str, str).name) == ("F", "P", "T")
    fun.obj, fun.arr, com.counit, com.comult = len, len, len, len
    assert (fun.obj, fun.arr, com.counit, com.comult) == (len, len, len, len)
