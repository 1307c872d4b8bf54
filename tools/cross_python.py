#!/usr/bin/env python3
"""Run a fixed CLI corpus under other interpreters and compare the bytes.

    python3 tools/cross_python.py PYTHON [PYTHON ...]

The package claims Python 3.10+ and byte-identical output for identical
inputs, flags and seeds. This tool runs ``CORPUS`` under the interpreter
that runs it and then under each PYTHON, every command as
``PYTHON -m glpart.cli ...`` in a fresh temporary directory, with
``PYTHONPATH`` set to this checkout's ``src`` and nothing installed. The
corpus generates k-trees and class members, unit and weighted, then runs
``check``, ``partition`` with and without ``--skip-checks``, ``verify``
and a small ``oracle-compare`` on them; one non-member is rejected.

Each command's exit code, stdout, stderr and ``--out`` file are compared
byte for byte with the running interpreter's. Every command that differs
is printed with what differs. The exit code is 0 when nothing differs, 1
when something does, and 2 when an interpreter cannot be started.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from typing import NamedTuple

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# a 5-cycle with a triangle on one edge: 2-connected, with a hole, so no member
HOLE = "6 7 2\n1 1 1 1 1 1\n0 3\n3 3\n0 1\n1 2\n2 3\n3 4\n4 0\n4 5\n5 0\n"

_INSTANCES = [
    # name, generate flags, verify rule
    ("ktree", ["--n", "60", "--k", "3", "--seed", "1"], "exact"),
    ("ktree-w", ["--n", "60", "--k", "3", "--max-weight", "5", "--seed", "2"], "window:5"),
    ("member", ["--n", "60", "--k", "3", "--cycles", "3", "--min-demand", "2",
                "--seed", "3"], "slack:1"),
    ("member-w", ["--n", "60", "--k", "3", "--cycles", "3", "--max-weight", "4",
                  "--min-demand", "4", "--seed", "4"], "window:8"),
]

CORPUS: list[list[str]] = [["generate", "--n", "20", "--k", "2", "--seed", "5"]]
for _name, _flags, _rule in _INSTANCES:
    _inst = f"{_name}.txt"
    CORPUS += [
        ["generate", *_flags, "--out", _inst],
        ["check", _inst, "--out", f"{_name}.check.json"],
        ["partition", _inst, "--out", f"{_name}.part.json"],
        ["partition", _inst, "--skip-checks"],
        ["verify", _inst, f"{_name}.part.json", "--deviation", _rule],
    ]
CORPUS += [
    ["check", "hole.txt"],
    ["partition", "hole.txt"],
    ["oracle-compare", "--trials", "3", "--n-max", "10", "--k", "2", "--seed", "6"],
]


class Run(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    out: bytes | None  # the --out file's bytes, if the command names one


def run_corpus(python: str, corpus: list[list[str]] = CORPUS) -> list[Run]:
    """Run each command of ``corpus`` in order under ``python`` in one fresh
    directory, which holds ``hole.txt`` from the start."""
    env = dict(os.environ, PYTHONPATH=SRC)
    runs = []
    with tempfile.TemporaryDirectory() as work:
        with open(os.path.join(work, "hole.txt"), "w", encoding="utf-8") as fh:
            fh.write(HOLE)
        for args in corpus:
            proc = subprocess.run([python, "-s", "-m", "glpart.cli", *args],
                                  cwd=work, env=env, capture_output=True)
            out = None
            if "--out" in args:
                path = os.path.join(work, args[args.index("--out") + 1])
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        out = fh.read()
            runs.append(Run(proc.returncode, proc.stdout, proc.stderr, out))
    return runs


def differences(reference: list[Run], other: list[Run],
                corpus: list[list[str]] = CORPUS) -> list[str]:
    """One line per command whose run differs, naming what differs."""
    lines = []
    for args, a, b in zip(corpus, reference, other):
        what = [f"exit {a.code} != {b.code}"] if a.code != b.code else []
        what += [field for field in ("stdout", "stderr", "out")
                 if getattr(a, field) != getattr(b, field)]
        if what:
            lines.append(f"glpart {' '.join(args)}: {', '.join(what)}")
    return lines


def version(python: str) -> str:
    proc = subprocess.run([python, "-c", "import sys; print(sys.version.split()[0])"],
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("python", nargs="+", help="interpreters to compare")
    args = ap.parse_args(argv)
    reference = run_corpus(sys.executable)
    here = sys.version.split()[0]
    status = 0
    for python in args.python:
        try:
            other_version = version(python)
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"{python}: cannot start: {exc}", file=sys.stderr)
            return 2
        diff = differences(reference, run_corpus(python))
        print(f"{python} ({other_version}) against {here}: {len(CORPUS)} commands, "
              f"{len(diff)} differ")
        for line in diff:
            print(f"  {line}")
        status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())
