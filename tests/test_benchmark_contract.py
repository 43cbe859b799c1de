"""The shapes the benchmark's traced runs (`perfbench/run.py --trace 1`)
unpack or count.

The tracer wraps every public module-level function and every public
method found in a class's own namespace; a generator function gets a
wrapper that counts its yields.  Hooks then read the wrapped call's
arguments and result.  A function that becomes a method, a staticmethod,
a plain function instead of a generator, or that changes its parameters
breaks a ledger or a hook, and the traced run then fails, not any report.
"""

import inspect

from weakmaps import awfs, bar, fincat, ratmat, spans


def params(fn):
    return list(inspect.signature(fn).parameters)


def test_squares_between_is_a_module_level_generator():
    fn = vars(awfs)["squares_between"]
    why = ("the awfs_laws ledger awfs.squares counts the yields of the"
           " module-level generator awfs.squares_between")
    assert inspect.isgeneratorfunction(fn), why
    assert (fn.__module__, fn.__qualname__) == ("weakmaps.awfs", "squares_between"), why
    assert params(fn) == ["cat", "f", "g"], (
        "the _squares_between hook unpacks (cat, f, g); keep the unused cat")


def test_enumerate_spans_is_a_module_level_generator():
    fn = vars(spans)["enumerate_spans"]
    why = ("the span_census ledger spans.enumerate_spans.spans (1,146) counts"
           " the yields of the generator spans.enumerate_spans")
    assert inspect.isgeneratorfunction(fn), why
    assert (fn.__module__, fn.__qualname__) == ("weakmaps.spans", "enumerate_spans"), why


def test_finset_hom_is_a_plain_method_returning_a_list():
    fn = vars(fincat.FinSetCategory)["hom"]
    why = ("the _hom hook counts len(result) of FinSetCategory.hom into the"
           " awfs_laws ledger fincat.hom.arrows (60)")
    assert inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn), why
    assert params(fn) == ["self", "a", "b"], why
    assert isinstance(fincat.FinSetCategory().hom(("x",), ("y",)), list), why


def test_bar_face_is_a_plain_method_of_n_and_j():
    fn = vars(bar.BarCalculus)["face"]
    assert inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn), (
        "bar.face.calls counts calls of the method BarCalculus.face")
    assert params(fn) == ["self", "n", "j"], (
        "the _face hook unpacks (calc, n, j) into bar.face.distinct")


def test_mmul_is_a_plain_function_of_two_matrices():
    fn = vars(ratmat)["mmul"]
    assert inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn), (
        "ratmat.mmul.calls counts calls of the module-level function mmul")
    assert params(fn) == ["a", "b"], "the _mmul hook unpacks (a, b)"
    assert not fn.__code__.co_freevars and fn.__defaults__ is None, (
        "count_mmul_at_code rebuilds mmul's body from its code object and"
        " sets its defaults, for ratmat.mmul.code_calls")
