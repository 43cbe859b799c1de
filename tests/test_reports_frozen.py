"""Pinned stdout of small runs of every computing subcommand.

Refactors of the validators must leave every report byte-identical; a
changed md5 here means a PASS line, a subject or the line order moved.
Re-pin only for a deliberate change of report text, and say why.
"""

import hashlib

import pytest

from weakmaps.cli import main

FROZEN = [
    ("awfs check --finset-max 2", "ec51ff16f7c0f0b7a95fa93271fd2843"),
    ("awfs check --finset-max 2 --builtin psplitepi",
     "00016dbd373a11a7403454bd92a7d337"),
    ("awfs check --finset-max 2 --builtin psplitepi --comonad coreader:S=3",
     "319d8d064870e834c33f6d30acdec07d"),
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
    ("factor ulali --trunc 3", "0fb3ad1ebd5a97c3b6cd8be96b4a667d"),
]


@pytest.mark.parametrize("args,md5", FROZEN, ids=[a for a, _ in FROZEN])
def test_report_md5_frozen(capsys, args, md5):
    assert main(args.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == md5
