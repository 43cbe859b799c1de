"""Uniform reporting for equation-level checks.

Every validator in this package appends to a CheckReport: a flat list of
named equations together with the object or arrow they were tested at and
a PASS / FAIL / TRUNCATION-EXEMPT status.  Reports render one line per
equation and mirror to JSON.  Ordering is exactly insertion order, so a
validator that iterates deterministically yields byte-identical output.

A family of equations (all naturality squares, all face pairs, ...) is
checked through `CheckReport.family(name)`.  Passing items leave no line;
each failing item is recorded when it fails, with both sides; `close`
then records the aggregate line: PASS when no item failed, otherwise
FAIL(lhs=<k> failing, rhs=0) with k the number of itemised failures.
"""

PASS = "PASS"
FAIL = "FAIL"
EXEMPT = "TRUNCATION-EXEMPT"


class Check:
    __slots__ = ("name", "subject", "status", "lhs", "rhs")

    def __init__(self, name, subject, status, lhs="", rhs=""):
        self.name = name
        self.subject = subject
        self.status = status
        self.lhs = lhs
        self.rhs = rhs

    def line(self) -> str:
        if self.status == FAIL:
            return f"EQ {self.name} @ {self.subject} : FAIL(lhs={self.lhs}, rhs={self.rhs})"
        return f"EQ {self.name} @ {self.subject} : {self.status}"


class CheckReport:
    __slots__ = ("checks",)

    def __init__(self):
        self.checks = []

    def record(self, name, subject, ok, lhs, rhs):
        status = PASS if ok else FAIL
        # values are only kept for failures; passing lines stay short
        self.checks.append(
            Check(name, subject, status, "" if ok else str(lhs), "" if ok else str(rhs))
        )
        return ok

    def eq(self, name, subject, lhs, rhs):
        """Record lhs == rhs under `name`, keeping reprs on failure."""
        return self.record(name, subject, lhs == rhs, lhs, rhs)

    def family(self, name) -> "Family":
        return Family(self, name)

    def exempt(self, name, subject):
        self.checks.append(Check(name, subject, EXEMPT))

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == FAIL]

    def counts(self):
        n = {PASS: 0, FAIL: 0, EXEMPT: 0}
        for c in self.checks:
            n[c.status] += 1
        return n

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]

    def summary_line(self) -> str:
        n = self.counts()
        return (
            f"SUMMARY: checks={len(self.checks)} pass={n[PASS]}"
            f" fail={n[FAIL]} exempt={n[EXEMPT]}"
        )

    def to_json(self) -> dict:
        return {
            "checks": [
                {
                    "name": c.name,
                    "subject": c.subject,
                    "status": c.status,
                    **({"lhs": c.lhs, "rhs": c.rhs} if c.status == FAIL else {}),
                }
                for c in self.checks
            ],
            "summary": {k.lower(): v for k, v in self.counts().items()},
            "ok": self.ok,
        }


class Family:
    """Counts the items of one check family and records its failures.

    `subject` may be a callable; it is called only for a failing item, so
    a hot loop formats no label for the items that pass.  A failing item
    is recorded under `name` when given (e.g. `comonad.counit.natural`
    inside the `comonad.natural` family), else under the family's name.
    """

    __slots__ = ("rep", "name", "n", "failed")

    def __init__(self, rep, name):
        self.rep = rep
        self.name = name
        self.n = 0
        self.failed = 0

    def check(self, ok, subject, lhs, rhs, name=None) -> bool:
        self.n += 1
        if not ok:
            self.failed += 1
            self.rep.record(name or self.name,
                            subject() if callable(subject) else subject,
                            False, lhs, rhs)
        return ok

    def close(self, subject) -> bool:
        return self.rep.record(self.name, subject, self.failed == 0,
                               f"{self.failed} failing", 0)
