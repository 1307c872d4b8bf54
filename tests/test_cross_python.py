"""The cross-interpreter comparison of ``tools/cross_python.py``: what its
corpus covers, how it reports a difference, and one short real run."""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import cross_python  # noqa: E402
from cross_python import Run  # noqa: E402


def test_corpus_covers_every_subcommand_and_the_flags_it_promises():
    commands = {args[0] for args in cross_python.CORPUS}
    assert commands == {"generate", "check", "partition", "verify", "oracle-compare"}
    flags = {flag for args in cross_python.CORPUS for flag in args
             if flag.startswith("--")}
    assert {"--cycles", "--max-weight", "--skip-checks", "--out"} <= flags


def test_differences_name_each_differing_field():
    corpus = [["check", "a.txt"], ["partition", "a.txt", "--out", "p.json"]]
    same = Run(0, b"{}\n", b"", None)
    ref = [same, Run(0, b"", b"", b"[1]\n")]
    assert cross_python.differences(ref, ref, corpus) == []
    other = [same, Run(2, b"", b"error\n", b"[2]\n")]
    assert cross_python.differences(ref, other, corpus) == [
        "glpart partition a.txt --out p.json: exit 0 != 2, stderr, out",
    ]


def test_two_runs_under_one_interpreter_agree():
    corpus = [["generate", "--n", "12", "--k", "2", "--seed", "1", "--out", "g.txt"],
              ["partition", "g.txt"]]
    first = cross_python.run_corpus(sys.executable, corpus)
    assert [r.code for r in first] == [0, 0]
    assert first[0].out and first[1].stdout
    second = cross_python.run_corpus(sys.executable, corpus)
    assert cross_python.differences(first, second, corpus) == []
