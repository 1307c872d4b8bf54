"""Golden CLI corpus: stdout and exit codes pinned by one SHA-256.

A small seeded corpus is generated with ``glpart generate`` and run through
``partition`` (auto mode, with and without checks) and ``check``, plus a
non-chordal graph forced into chordal mode and an input on which the growth
loop stalls. Any change to what the CLI prints or returns on these inputs
changes the digest; an intended change must update it and say why.
"""

from __future__ import annotations

import hashlib

from glpart.cli import main

GOLDEN_SHA256 = "6d0bdd779ba7888bdf5d8da857d132f8a42c2876136f69f6753bfdd119ebf7f3"

# (name, generate flags); every instance keeps n <= 60
CORPUS = [
    ("ktree", ["--n", "60", "--k", "3", "--seed", "11"]),
    ("ktree-weighted", ["--n", "50", "--k", "4", "--max-weight", "6", "--seed", "12"]),
    ("member", ["--n", "60", "--k", "2", "--cycles", "4", "--seed", "13",
                "--min-demand", "2"]),
    ("member-weighted", ["--n", "48", "--k", "3", "--cycles", "3", "--max-weight", "5",
                         "--seed", "14", "--min-demand", "6"]),
]

# a tree is chordal but only 1-connected: with checks skipped the loop stalls
STALL = "5 4 3\n1 1 1 1 1\n3 2 0\n1 3 1\n0 2\n0 3\n0 4\n1 4\n"


def _run(argv, capsys, digest) -> int:
    code = main(argv)
    out = capsys.readouterr().out
    digest.update(f"{code}\n{out}".encode())
    return code


def test_cli_corpus_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    codes = []
    for name, flags in CORPUS:
        assert _run(["generate", *flags], capsys, digest) == 0
        path = tmp_path / f"{name}.txt"
        assert main(["generate", *flags, "--out", str(path)]) == 0
        for cmd in (["partition"], ["partition", "--skip-checks"], ["check"]):
            codes.append(_run([*cmd, str(path)], capsys, digest))

    member = str(tmp_path / "member.txt")
    codes.append(_run(["partition", member, "--mode", "chordal"], capsys, digest))
    stall = tmp_path / "stall.txt"
    stall.write_text(STALL)
    codes.append(_run(["partition", str(stall), "--mode", "chordal", "--skip-checks"],
                      capsys, digest))

    assert codes == [0] * 12 + [2, 1]
    assert digest.hexdigest() == GOLDEN_SHA256
