"""The benchmark's workloads and the oracle that checks their reports.

Every workload is one `weakmaps` CLI invocation with pinned arguments.
The seed is passed to every command as `--seed`; only `weak_calculus`
draws its inputs from it.  The other four are exhaustive, so the seed
changes nothing but the `# seed:` header line (and `weakmaps compare`
ignores it, a known defect).

The reference of each workload was pinned from the unoptimised program by
`pin.py`: exit status, the SUMMARY line, every TABLE row, the md5 of the
report with its seed made symbolic, and the raw md5 for each pinned seed.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import layers

REFERENCE = Path(__file__).with_name("reference.json")

# cli.py derives the seed of trial i of `dg check` as seed * 1000003 + i
TRIAL_STRIDE = 1000003


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple
    why: str
    seeded: bool = False
    ledger: object = dict  # () -> {per-layer metric: closed-form value}

    def argv(self, seed: int) -> list:
        return [*self.args, "--seed", str(seed)]


# Sizes are chosen so that a run takes about a second: the machine's speed
# drifts in bursts, and the median of many short runs resists them far
# better than two or three long runs do.  The smaller sizes keep the
# layer shares of the larger ones (cProfile, seed commit).  awfs_laws keeps
# its full size: `awfs check` has no size between 0.15 s and 5-8 s.
WORKLOADS = {w.name: w for w in (
    Workload(
        "awfs_laws",
        ("awfs", "check", "--builtin", "psplitepi", "--comonad", "coreader:S=2",
         "--finset-max", "3"),
        "AWFS laws on 60 arrows and 74,112 squares x 4 naturality laws;"
        " self time fincat 71%, awfs 17%, no ratmat. Exhaustive: the seed"
        " only sets the header.",
        ledger=lambda: {"fincat.hom.arrows": layers.fragment_arrow_count(3),
                        "awfs.squares": layers.square_count(3)}),
    Workload(
        "span_census",
        ("weakmaps", "compare", "--A", "1", "--B", "2", "--bound", "5",
         "--zigzag", "4"),
        "1,146 spans with canonical reach: hom enumeration and eq inside"
        " span_maps; self time fincat 65%, spans 30%. Exhaustive; compare"
        " ignores --seed.",
        ledger=lambda: {"spans.enumerate_spans.spans":
                        layers.span_count(a=1, b=2, s=2, bound=5)}),
    Workload(
        "bar_resolve",
        ("bar", "resolve", "--trunc", "4"),
        "Dual numbers, ground, L=4: validate_bar ~99% in dense mmul, almost"
        " all multiply-adds have a zero factor. Sparse kernel target."
        " Exhaustive.",
        ledger=lambda: {"bar.face.distinct": layers.face_count(4)}),
    Workload(
        "codescent",
        ("factor", "ulali", "--trunc", "5"),
        "Dual numbers, free, L=5: TruncatedCodescent assembly ~97%, no"
        " validate_bar; isolates codescent assembly from face checking."
        " Exhaustive."),
    Workload(
        "weak_calculus",
        ("dg", "check", "--builtin", "exterior", "--module", "free",
         "--trunc", "4", "--trials", "30"),
        "30 random weak maps drawn from the seed, the only seeded workload;"
        " dg ~59%, ratmat ~20% on small dense blocks. Guards dense products"
        " against a sparse ratmat.",
        seeded=True),
)}

# ROADMAP's scaled sizes: run once each under a timeout, never gated.
PROBES = {
    "awfs_finset4": ("awfs", "check", "--finset-max", "4"),
    "compare_a2b2": ("weakmaps", "compare", "--A", "2", "--B", "2",
                     "--bound", "6"),
    "bar_trunc6": ("bar", "resolve", "--trunc", "6"),
}


def md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


def normalize(w: Workload, seed: int, text: str) -> str:
    """The report with its seed made symbolic, or "" if the seed is wrong.

    The header line must name `seed`; in a seeded workload each subject
    `seed=N` must be a trial seed of `seed` and becomes its trial offset.
    """
    header = f"# seed: {seed}\n"
    if header not in text:
        return ""
    text = text.replace(header, "# seed: SEED\n", 1)
    if w.seeded:
        text = re.sub(r"seed=(\d+)",
                      lambda m: f"seed=SEED+{int(m.group(1)) - seed * TRIAL_STRIDE}",
                      text)
    return text


def summary_line(text: str) -> str:
    return next((ln for ln in text.splitlines() if ln.startswith("SUMMARY:")), "")


def table_rows(text: str) -> list:
    return [ln for ln in text.splitlines()
            if ln.startswith("TABLE ") or ln.startswith("  ")]


def describe(w: Workload, seed: int, status: int, text: str) -> dict:
    """The facts the oracle compares; also what pin.py records."""
    return {"exit": status, "summary": summary_line(text),
            "tables": table_rows(text), "md5": md5(normalize(w, seed, text))}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check(ref: dict, w: Workload, seed: int, status: int, text: str) -> list:
    """Mismatches between one report and the workload's reference."""
    got = describe(w, seed, status, text)
    want = ref[w.name]
    problems = [f"{key}: got {got[key]!r}, want {want[key]!r}"
                for key in ("exit", "summary", "tables", "md5")
                if got[key] != want[key]]
    raw = want["seeds"].get(str(seed))
    if raw is not None and md5(text) != raw:
        problems.append(f"raw md5 for seed {seed}: got {md5(text)}, want {raw}")
    return problems


def ledger(w: Workload, trace: dict, values: dict) -> list:
    """(metric, traced value, expected value) for every ledger entry.

    mmul's calls and multiply-adds are expected to equal the counts taken
    at its code object (tracer.count_mmul_at_code), which see every call
    whatever name it went through; the workload's own entries are closed
    forms from layers.py.
    """
    counts = trace["counts"]
    rows = [(f"ratmat.mmul.{k}", values[f"ratmat.mmul.{k}"],
             counts.get(f"ratmat.mmul.code_{k}", 0)) for k in ("calls", "madds")]
    rows += [(k, values[k], want) for k, want in w.ledger().items()]
    return rows
