#!/usr/bin/env python3
"""Pin every workload's reference from the program in this checkout.

    python3 perfbench/pin.py

Runs each exhaustive workload at seed 0 and the seeded one at seeds
0..PINNED_SEEDS-1, checks that all seeds agree once the seed is made symbolic, and
writes perfbench/reference.json.  Pin only from a commit whose reports are
known to be right: re-pinning to make a changed report pass defeats the
oracle.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl

PINNED_SEEDS = 11  # seeds 0-10 of the seeded workload


def main() -> int:
    ref = {}
    for w in wl.WORKLOADS.values():
        entry = None
        for seed in range(PINNED_SEEDS if w.seeded else 1):
            p = run.spawn(run.cli_args(w, seed), 600, w.name)
            if p.timed_out or p.status not in (0, 1):
                print(f"{w.name} seed {seed}: exit {p.status}", file=sys.stderr)
                return 1
            got = wl.describe(w, seed, p.status, p.out)
            if entry is None:
                entry = dict(got, seeds={})
            elif any(entry[k] != got[k] for k in got):
                print(f"{w.name}: seed {seed} disagrees with seed 0",
                      file=sys.stderr)
                return 1
            entry["seeds"][str(seed)] = wl.md5(p.out)
            print(f"{w.name} seed {seed}: {got['summary']} ({p.wall_s:.1f} s)")
        ref[w.name] = entry
    wl.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
