"""Pinned stdout of small runs of every computing subcommand.

Refactors of the validators must leave every report byte-identical; a
changed md5 here means a PASS line, a subject or the line order moved.
Re-pin only for a deliberate change of report text, and say why.
"""

import hashlib
import json

import pytest

from generators import CONE, EXTERIOR_DOWN, POLY3
from weakmaps.cli import main

FROZEN = [
    ("awfs check --finset-max 2", "ec51ff16f7c0f0b7a95fa93271fd2843"),
    ("awfs check --finset-max 3", "6f80beaac7e53fe18d45602918c7cfde"),
    ("awfs check --finset-max 2 --builtin psplitepi",
     "00016dbd373a11a7403454bd92a7d337"),
    ("awfs check --finset-max 2 --builtin psplitepi --comonad coreader:S=3",
     "319d8d064870e834c33f6d30acdec07d"),
    # the awfs_laws workload of perfbench (74,112 squares), pinned equal to
    # its seed-0 entry in perfbench/reference.json
    ("awfs check --finset-max 3 --builtin psplitepi --comonad coreader:S=2",
     "23dd1be4214b7a66b6f6ffde84da2d78"),
    # P = Id, the side of the SplitEpiAwfs/PSplitEpiAwfs oracle pair with
    # the most squares
    ("awfs check --finset-max 3 --builtin psplitepi --comonad identity",
     "8d7b7feb81998b4f00a0abb315285e8b"),
    ("weakmaps compare --A 1 --B 2 --bound 4",
     "b629c8c34f49665858aaab745a3d82ae"),
    ("weakmaps compare --A 2 --B 2 --bound 4",
     "e9f1bc2412fe33f6f10ba89e70e874c5"),
    ("bar resolve --trunc 3", "3fb4041c27bbe9222f11b841a1bb4ac3"),
    ("bar resolve --trunc 3 --builtin exterior --module free",
     "26662d274250f10457acf08db83aaaf8"),
    ("dg check --trials 3", "34d07420533a8a3df3e50f17efd7a4a5"),
    ("dg check --builtin exterior --module free --trunc 5 --trials 3",
     "fdb95abe1b2b8fb63cccb09d3a82f6db"),
    ("lift lali --trunc 3", "13e71d0e3e86b3fcf5a67719b4ac2e46"),
    ("lift lali --builtin exterior --trunc 5",
     "9810c9e0c249018cac2f790a452c7b1f"),
    # a size at which building the whole tower T^{L+2}M used to take most
    # of the run, though `lift lali` reads none of it
    ("lift lali --trunc 8", "d3889d4c794864c3eca5896309cdcbe8"),
    ("factor ulali --trunc 3", "0fb3ad1ebd5a97c3b6cd8be96b4a667d"),
    ("factor ulali --trunc 8", "6a55a9ab1a297235c7d86310d6b807ce"),
    ("factor ulali --builtin exterior --trunc 6",
     "fd6ae4c9fb760e673345d36ec1bd6c3f"),
    # the bar_resolve and codescent workloads of perfbench, the two that
    # build the codescent complex, pinned equal to their seed-0 entries in
    # perfbench/reference.json
    ("bar resolve --trunc 4", "b6ca34b3602b1d3955a2a408e2c6d223"),
    ("factor ulali --trunc 5", "0627f46f40062c34044661f91c27c692"),
    # the tower at a depth where its blocks run to 512 x 256
    ("bar resolve --trunc 6", "078b79993ed00bf3454be8f5abca9c33"),
]


@pytest.mark.parametrize("args,md5", FROZEN, ids=[a for a, _ in FROZEN])
def test_report_md5_frozen(capsys, args, md5):
    assert main(args.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == md5


# Runs over an algebra file, for the paths the built-ins never reach: CONE
# is the one fixture whose differential is nonzero through the tensor
# boundary, over EXTERIOR_DOWN the coherent levels 2..L are live, and over
# POLY3 the inner faces of the bar levels are nonzero.  The `# config:`
# line prints the file's path, so each run writes it under a fixed
# relative name in its own directory.
FILES = {"cone.json": CONE, "exterior_down.json": EXTERIOR_DOWN,
         "poly3.json": POLY3}
FROZEN_FILES = [
    ("bar resolve --module ground --trunc 4 --dgalgebra cone.json",
     "dc6c546718b6fbc56e1b2120355122c4"),
    ("factor ulali --trunc 4 --dgalgebra cone.json",
     "dfdfc25b3970225a4f48f211320ac1e6"),
    ("dg check --module free --trunc 4 --trials 5"
     " --dgalgebra exterior_down.json", "6c8c97234c67bd18fef8e015d1109941"),
    ("lift lali --trunc 4 --dgalgebra exterior_down.json",
     "5c1ac386a53f4473c493bfa187816904"),
    ("bar resolve --module ground --trunc 3 --dgalgebra poly3.json",
     "aa923dcec4ca41cfd97282374e89493d"),
    # POLY3, whose entries the loader reads as Fractions, with live inner
    # faces on every level up to 4
    ("bar resolve --module ground --trunc 4 --dgalgebra poly3.json",
     "96471362a6c569f6f8d8c1dc87125003"),
    ("factor ulali --trunc 3 --dgalgebra poly3.json",
     "171e655ab343aaebb006a6f75eeab17b"),
    # the coherent calculus over the live inner faces of POLY3 and the
    # nonzero differential of CONE
    ("dg check --module free --trunc 4 --trials 5 --dgalgebra poly3.json",
     "62c08ff5024afe26601ed29b3ebc29a5"),
    ("dg check --module free --trunc 4 --trials 5 --dgalgebra cone.json",
     "93a6e2512fbffeed160dc1dcc2e79c6b"),
]


@pytest.mark.parametrize("args,md5", FROZEN_FILES,
                         ids=[a for a, _ in FROZEN_FILES])
def test_file_report_md5_frozen(tmp_path, monkeypatch, capsys, args, md5):
    monkeypatch.chdir(tmp_path)
    name = args.split()[-1]
    (tmp_path / name).write_text(json.dumps(FILES[name]))
    assert main(args.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == md5
