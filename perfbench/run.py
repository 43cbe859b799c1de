#!/usr/bin/env python3
"""Benchmark of the weakmaps CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
    python3 perfbench/run.py --workload NAME --seed N --trace 1
    python3 perfbench/run.py --workload all --seconds S
    python3 perfbench/run.py --probes

Every run of a workload is a fresh `python3 -m weakmaps` process, started
only after the previous one exited: a closed loop with one client, which
is how a user pays for a batch verification.  With `--trace 0` the runs
repeat until `--seconds` have passed (at least one) and the end-to-end
metrics are medians over them; `setup_s` is the median of several
`weakmaps --help` processes (interpreter start, `import weakmaps.cli`,
`build_parser`).  Times are scaled to a reference CPU speed measured by
`calibrate()` around each process (see README.md).  With `--trace 1` one
untraced and one traced run (perfbench/tracer.py) give the per-layer
metrics and the tracing overhead.
Each report is checked against the pinned reference; a run fails on a
timeout, an unexpected exit status or a report that differs.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `--workload all` prints the
end-to-end table for every workload instead, and `--probes` runs the
scaled sizes once each under PROBE_TIMEOUT_S, recording seconds or
"timeout"; neither is gated.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
MIN_SETUP = 5
# calibrate() in a quiet period on the machine the benchmark was built on
CAL_REF_S = 0.021
RUN_LIMIT_S = 170  # a `--workload NAME` invocation must end within 180 s
PROBE_TIMEOUT_S = 150  # per scaled probe; `bar resolve --trunc 6` takes ~100 s


@dataclass
class Proc:
    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool
    out: str
    err: str


def spawn(args, timeout, tag) -> Proc:
    """Run `python3 ARGS` with src/ on the path; wait for it and its rusage."""
    WORK.mkdir(exist_ok=True)
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                             env=env, cwd=ROOT)

        def kill():
            killed.set()
            try:
                os.kill(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(p.returncode, wall, ru.ru_utime + ru.ru_stime,
                ru.ru_maxrss / 1024, killed.is_set(),
                out_path.read_text(errors="replace"),
                err_path.read_text(errors="replace"))


def cli_args(w, seed):
    return ["-m", "weakmaps", *w.argv(seed)]


def verdict(ref, w, seed, p: Proc) -> list:
    if p.timed_out:
        return ["timed out"]
    problems = wl.check(ref, w, seed, p.status, p.out)
    if p.status not in (0, 1) and p.err:
        problems.append("stderr: " + p.err.strip().splitlines()[-1])
    return problems


def report_problems(label, problems):
    for msg in problems:
        print(f"  FAILED {label}: {msg[:300]}")


def _median(values):
    return statistics.median(values) if values else 0.0


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's current speed.

    On the two-core machine this benchmark was built on, CPU speed drifts
    by up to 2x for tens of seconds at a time.  The drift slows this loop
    and the workloads alike (correlation 0.92 over 220 runs of codescent),
    so times scaled by CAL_REF_S / calibrate() are steady where raw ones
    are not: over eleven 20 s windows the spread of median raw times was
    0.78 and that of scaled times 0.065.
    """
    t0 = time.perf_counter()
    seen, acc = {}, 0
    for i in range(60_000):
        key = (i % 97, i % 89)
        seen[key] = seen.get(key, 0) + i
        acc += sum(key) * 3 % 7
    return time.perf_counter() - t0


def probe_setup():
    """Time one `weakmaps --help`: (seconds, 1 if it failed else 0)."""
    p = spawn(["-m", "weakmaps", "--help"], 60, "setup")
    if p.status != 0 or not p.out.startswith("usage: weakmaps"):
        report_problems("setup", [f"exit {p.status}"])
        return p.wall_s, 1
    return p.wall_s, 0


def measure(w, seed, seconds, ref) -> dict:
    """End-to-end metrics of one workload, tracing off.

    Every time is scaled to the reference speed by calibrations taken just
    before and after the processes it belongs to.
    """
    deadline = time.perf_counter() + RUN_LIMIT_S
    spawn(["-m", "weakmaps", "--help"], 60, "warmup")  # compiles bytecode
    setup, runs, failed = [], [], 0  # (raw seconds, scale), (Proc, scale)
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        left = deadline - time.perf_counter()
        if runs and left < 2 * runs[-1][0].wall_s:
            break
        # one setup probe before each run, so that both sample the same
        # machine conditions
        c0 = calibrate()
        s, bad = probe_setup()
        p = spawn(cli_args(w, seed), deadline - time.perf_counter(), w.name)
        scale = 2 * CAL_REF_S / (c0 + calibrate())
        problems = verdict(ref, w, seed, p)
        if problems:
            failed += 1
            report_problems(f"{w.name} run {len(runs) + 1}", problems)
        failed += bad
        setup.append((s, scale))
        runs.append((p, scale))
    while len(setup) < MIN_SETUP:
        c0 = calibrate()
        s, bad = probe_setup()
        setup.append((s, 2 * CAL_REF_S / (c0 + calibrate())))
        failed += bad
    n, attempted = len(runs), len(runs) + len(setup)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": (_median([p.wall_s * k for p, k in runs]), "s", n),
            "cpu_s": (_median([p.cpu_s * k for p, k in runs]), "s", n),
            "setup_s": (_median([s * k for s, k in setup]), "s", len(setup)),
            "peak_rss_mb": (_median([p.rss_mb for p, _ in runs]), "MiB", n),
            "failed_share": (failed / attempted, "ratio", attempted),
            "raw_wall_s": (_median([p.wall_s for p, _ in runs]), "s", n),
            "raw_setup_s": (_median([s for s, _ in setup]), "s", len(setup)),
            "speed": (_median([k for _, k in runs]), "ratio", n),
        },
    }


def traced(w, seed, ref) -> dict:
    """Per-layer metrics from one traced run, checked against an untraced one."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    c0 = calibrate()
    plain = spawn(cli_args(w, seed), deadline - time.perf_counter(), w.name)
    c1 = calibrate()
    dump = WORK / f"{w.name}.trace.json"
    dump.unlink(missing_ok=True)
    tr = spawn([str(HERE / "tracer.py"), str(dump), "--", *w.argv(seed)],
               deadline - time.perf_counter(), w.name + ".traced")
    c2 = calibrate()
    metrics, ledger, traced_problems = {}, [], []
    if dump.exists():
        trace = json.loads(dump.read_text())
        values = layers.derive(trace)
        values[layers.OVERHEAD[0]] = (tr.wall_s / (c1 + c2)) / (plain.wall_s / (c0 + c1)) - 1
        metrics = {k: (v, layers.UNITS[k], 1) for k, v in values.items()}
        ledger = wl.ledger(w, trace, values)
        for name, got, want in ledger:
            ok = "ok" if got == want else "MISMATCH"
            print(f"  ledger {name}: traced {got}, expected {want} {ok}")
            if got != want:
                traced_problems.append(f"ledger {name}: {got} != {want}")
    else:
        traced_problems.append("tracer wrote no dump")
    failed = 0
    for label, p, problems in (("untraced", plain, []),
                               ("traced", tr, traced_problems)):
        problems = verdict(ref, w, seed, p) + problems
        if p is tr and p.out != plain.out:
            problems.append("traced report differs from the untraced one")
        if problems:
            failed += 1
            report_problems(label, problems)
    return {"attempted": 2, "failed": failed, "metrics": metrics,
            "ledger": ledger}


def print_table(name, seed, res):
    print(f"{name} (seed {seed}): {res['attempted']} processes,"
          f" {res['failed']} failed")
    for metric, (value, unit, n) in res["metrics"].items():
        moves = layers.MOVES.get(metric, "")
        print(f"  {metric:32s} {value:14.6g} {unit:6s} n={n}"
              + (f"  [moves {moves}]" if moves else ""))


def result_line(res, names) -> str:
    metrics = {k: {"value": v, "unit": u}
               for k, (v, u, _) in res["metrics"].items() if k in names}
    return json.dumps({"correct": res["failed"] == 0,
                       "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def run_probes():
    record = {}
    for name, args in wl.PROBES.items():
        p = spawn(["-m", "weakmaps", *args], PROBE_TIMEOUT_S, name)
        record[name] = "timeout" if p.timed_out else round(p.wall_s, 3)
        shown = "timeout" if p.timed_out else f"{p.wall_s:.2f} s"
        print(f"probe {name} ({' '.join(args)}): {shown}, exit {p.status}")
    print(json.dumps(record))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probes", action="store_true",
                    help="run the scaled sizes once each (not gated)")
    ns = ap.parse_args(argv)
    if not (ROOT / "src" / "weakmaps" / "cli.py").is_file():
        print(f"error: no weakmaps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated benchmark still kills and reaps its child (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # calibrations and the processes they scale must share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if ns.probes:
        run_probes()
        return 0
    if ns.workload is None:
        ap.error("--workload or --probes is required")
    ref = wl.load_reference()
    if ns.workload == "all":
        failed = 0
        for w in wl.WORKLOADS.values():
            res = measure(w, ns.seed, ns.seconds, ref)
            print_table(w.name, ns.seed, res)
            failed += res["failed"]
        return 1 if failed else 0
    w = wl.WORKLOADS[ns.workload]
    if ns.trace:
        res = traced(w, ns.seed, ref)
        names = layers.UNITS
    else:
        res = measure(w, ns.seed, ns.seconds, ref)
        names = {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
    print_table(w.name, ns.seed, res)
    print(result_line(res, names))
    return 1 if res["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
