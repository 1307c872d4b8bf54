"""The public API holds only what the solvers, the CLI and the benchmark use.

Every name in ``glpart.__all__`` must occur somewhere in the library
modules or in ``perfbench/`` other than on its own ``def``/``class`` line.
A helper that only tests call belongs in ``tests/bruteforce.py``. No
library module imports another's underscore names, the verifier
imports nothing but types from the rest of the library, and the
connectivity check does not read the 4-cycle catalog.
"""

from __future__ import annotations

import ast
import importlib
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


def _private_imports(path: Path) -> list[str]:
    """``module.name`` for each underscore name ``path`` imports from glpart."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("glpart"):
            continue
        found += [
            f"{node.module}.{alias.name}"
            for alias in node.names if alias.name.startswith("_")
        ]
    return found


def test_no_private_imports_across_modules():
    # each stage has one public entry point; a private twin that another
    # module calls would be a second code path beside it
    offenders = {
        p.name: _private_imports(p)
        for p in sorted((ROOT / "src" / "glpart").glob("*.py"))
    }
    assert {name: got for name, got in offenders.items() if got} == {}


def test_verifier_imports_only_types():
    # the verifier is the reference the solvers are checked against, so it
    # shares no function with them
    path = ROOT / "src" / "glpart" / "verify.py"
    functions = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        name = f"glpart.{node.module}" if node.level else node.module or ""
        if name.startswith("glpart"):
            module = importlib.import_module(name)
            functions += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if not isinstance(getattr(module, alias.name), type)
            ]
    assert functions == []


def test_connectivity_does_not_read_the_catalog():
    # connectivity triangulates by the elimination game, so the catalog
    # stays a recognition and contraction certificate only
    tree = ast.parse((ROOT / "src" / "glpart" / "connectivity.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert [name for name in names if "c4" in name.split(".")] == []
