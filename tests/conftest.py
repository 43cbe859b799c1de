import pytest

from weakmaps.report import FAIL, PASS


def _family_fails(rep, name, items=None, subject=None):
    """Assert that family `name` FAILed as the primitive records it.

    Exactly one aggregate line is named `name` (PASS, or a FAIL that
    reads FAIL(lhs=<digits> failing, rhs=0)); it is the last line of that
    name, its subject starts with `subject` when given, and it FAILed with
    k = the number of itemised FAIL lines recorded under `items` (default:
    the family's own name).  Every itemised FAIL carries two sides that
    print differently.  Returns the items.
    """
    named = [c for c in rep.checks if c.name == name]
    aggs = [c for c in named
            if c.status == PASS
            or (c.status == FAIL and c.rhs == "0"
                and c.lhs.endswith(" failing")
                and c.lhs.removesuffix(" failing").isdigit())]
    assert len(aggs) == 1, [c.line() for c in aggs]
    agg, = aggs
    assert agg is named[-1], [c.line() for c in named]
    if subject is not None:
        assert agg.subject.startswith(subject), agg.line()
    failed = [c for c in rep.failures()
              if c.name in (items or {name}) and c is not agg]
    assert failed and agg.status == FAIL, [c.line() for c in rep.failures()]
    assert (agg.lhs, agg.rhs) == (f"{len(failed)} failing", "0")
    assert all(c.lhs and c.rhs and c.lhs != c.rhs for c in failed)
    return failed


@pytest.fixture
def family_fails():
    return _family_fails
