"""Tests of the benchmark itself: oracle, seeds, tracer and ledger.

    python3 -m pytest perfbench -q

They run real workloads (under a minute on two cores).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads as wl

REF = wl.load_reference()


@pytest.fixture(scope="module")
def codescent_report():
    w = wl.WORKLOADS["codescent"]
    p = run.spawn(run.cli_args(w, 0), 120, "test.codescent")
    assert p.status == 0
    return p.out


def test_benchmark_json_lists_every_metric_and_workload():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (n, u, b) for n, u, b, *_ in [*layers.METRICS, layers.OVERHEAD]]
    assert {m["name"] for m in doc["end_to_end"]} == {
        "wall_s", "cpu_s", "setup_s", "peak_rss_mb"}


def test_oracle_accepts_the_pinned_report(codescent_report):
    w = wl.WORKLOADS["codescent"]
    assert wl.check(REF, w, 0, 0, codescent_report) == []
    moved = codescent_report.replace("# seed: 0\n", "# seed: 5\n")
    assert wl.check(REF, w, 5, 0, moved) == []


@pytest.mark.parametrize("corrupt", [
    lambda t: t.replace(": PASS", ": FAIL(lhs=1, rhs=0)", 1),
    lambda t: t.replace("chain map = True", "chain map = False"),
    lambda t: t.replace("EQ ", "EQ x", 1),
    lambda t: t.replace("# seed: 0", "# seed: 1"),
])
def test_oracle_counts_a_corrupted_report_as_failed(codescent_report, corrupt):
    w = wl.WORKLOADS["codescent"]
    bad = corrupt(codescent_report)
    assert bad != codescent_report
    assert wl.check(REF, w, 0, 0, bad)
    p = run.Proc(0, 1.0, 1.0, 1.0, False, bad, "")
    assert run.verdict(REF, w, 0, p)


def test_oracle_counts_exit_status_and_timeout(codescent_report):
    w = wl.WORKLOADS["codescent"]
    assert wl.check(REF, w, 0, 1, codescent_report)
    p = run.Proc(-9, 1.0, 1.0, 1.0, True, codescent_report, "")
    assert run.verdict(REF, w, 0, p) == ["timed out"]


def test_seeds_change_weak_calculus_but_not_its_counts():
    w = wl.WORKLOADS["weak_calculus"]
    reports = []
    for seed in (3, 4):
        p = run.spawn(run.cli_args(w, seed), 120, f"test.seed{seed}")
        assert wl.check(REF, w, seed, p.status, p.out) == []
        reports.append(p.out)
    assert reports[0] != reports[1]
    assert wl.summary_line(reports[0]) == wl.summary_line(reports[1])


def test_reference_table_matches_span_ledger():
    n = wl.WORKLOADS["span_census"].ledger()["spans.enumerate_spans.spans"]
    assert f"  bounded spans = {n}" in REF["span_census"]["tables"]


@pytest.mark.parametrize("name", ["awfs_laws", "span_census", "bar_resolve",
                                  "codescent"])
def test_traced_run_matches_report_and_ledger(name, capsys):
    w = wl.WORKLOADS[name]
    res = run.traced(w, 0, REF)
    assert res["failed"] == 0, capsys.readouterr().out
    values = {k: v for k, (v, _, _) in res["metrics"].items()}
    assert set(values) == set(layers.UNITS)
    assert res["ledger"], "no ledger entries"
    for metric, got, want in res["ledger"]:
        assert got == want, metric
    if name in ("bar_resolve", "codescent"):
        # bar and dg call mmul under their own imported names
        assert values["ratmat.mmul.calls"] > 0
    else:
        assert values["fincat.compose.calls"] > 0


def test_ledger_mismatch_fails_the_traced_run(monkeypatch):
    monkeypatch.setattr(wl, "ledger", lambda w, trace, values: [("x", 1, 2)])
    res = run.traced(wl.WORKLOADS["span_census"], 0, REF)
    assert res["failed"] == 1


def test_code_count_sees_calls_the_rebinding_missed():
    # `early` is bound before install(), so only the code-level count sees it
    script = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
from weakmaps.ratmat import mmul as early
import tracer
t = tracer.Tracer()
tracer.install(t)
import weakmaps.ratmat as rm
assert rm.mmul(((1,),), ((2,),)) == ((2,),)
assert early(((1, 2),), ((3,), (4,))) == ((11,),)
print(json.dumps([t.calls["ratmat.mmul"], t.counts["ratmat.mmul.madds"],
                  t.counts["ratmat.mmul.code_calls"],
                  t.counts["ratmat.mmul.code_madds"]]))
"""
    p = subprocess.run([sys.executable, "-c", script], cwd=run.ROOT,
                       capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout) == [1, 1, 2, 3]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "codescent", "--seed", "0", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=180)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
