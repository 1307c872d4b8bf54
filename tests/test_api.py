"""The public API holds only what the solvers, the CLI and the benchmark use.

Every name in ``glpart.__all__`` must occur somewhere in the library
modules or in ``perfbench/`` other than on its own ``def``/``class`` line.
A helper that only tests call belongs in ``tests/bruteforce.py``.
"""

from __future__ import annotations

import re
from pathlib import Path

import glpart

ROOT = Path(__file__).resolve().parent.parent


def _user_lines() -> list[str]:
    files = [p for p in (ROOT / "src" / "glpart").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "perfbench").glob("*.py")
    return [line for p in sorted(files) for line in p.read_text().splitlines()]


def test_every_public_name_has_a_user():
    lines = _user_lines()
    unused = []
    for name in glpart.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(ln) and not own.match(ln) for ln in lines):
            unused.append(name)
    assert unused == []
