"""The public API holds only what the solvers, the CLI and the benchmark use.

Every name in ``glpart.__all__`` must be referenced by code in a library
module other than ``__init__`` or in ``perfbench/``: as a bare name, an
attribute or an imported name. A mention in a docstring or a comment does
not count. A helper that only tests call belongs in ``tests/bruteforce.py``;
so does a public method of a graph type that no other library module
reads.
The CLI leaves the choice of solver to ``solve``, and no module, tool or
README example reads ``solve``'s one frozen answer record by position.
The README's quick start runs against the API as it is, and its CLI
synopsis names
each subcommand's flags as the parser defines them. Only the generators
draw, and the CLI formats no instance itself. No library module imports
another's underscore names, the verifier imports nothing but types from
the rest of the library, and the connectivity check does not read the
4-cycle catalog. Induced subgraphs are built only by the clique separator
decomposition, one per atom, and by the peel. ``solve`` runs every stage
of a member solve: the stage module imports nothing from ``partition``,
and importing the CLI does not load it. A chordality witness is
built at one site, the walk that every elimination order's check runs.
The growth loop seeds its parts and assigns its picks with no helper
function, and appends to a part at one site. networkx is a test
reference only: no library module imports it.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest

import glpart
from glpart.cli import _build_parser
from glpart.graph import Graph, MergeMap, WeightedGraph

ROOT = Path(__file__).resolve().parent.parent


def _references(path: Path) -> set[str]:
    """The names ``path``'s code refers to: bare names, attribute names and
    imported names. Definitions, strings and comments are not references."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_public_name_has_a_user():
    files = [p for p in (ROOT / "src" / "glpart").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "perfbench").glob("*.py")
    used = set().union(*map(_references, files))
    assert [name for name in glpart.__all__ if name not in used] == []


def test_every_graph_method_has_a_user():
    # read as an attribute anywhere but graph.py, where they are defined; a
    # bare name does not count, as ``edges`` is also a local variable
    used = {
        node.attr
        for path in (ROOT / "src" / "glpart").glob("*.py") if path.name != "graph.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }
    public = [
        f"{cls.__name__}.{name}"
        for cls in (Graph, WeightedGraph, MergeMap)
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and isinstance(value, (property, classmethod, staticmethod, FunctionType))
    ]
    assert [name for name in public if name.split(".")[1] not in used] == []


def test_cli_leaves_the_solver_choice_to_solve():
    refs = _references(ROOT / "src" / "glpart" / "cli.py")
    assert "solve" in refs
    assert sorted(r for r in refs if r.startswith("gl_partition_")) == []


def test_only_the_generators_draw():
    # one module turns a seed into an instance; the CLI parses the flags,
    # calls it and prints what it returns
    modules = sorted((ROOT / "src" / "glpart").glob("*.py"))
    drawing = [p.name for p in modules if "getrandbits" in _references(p)]
    assert drawing == ["generators.py"]
    refs = _references(ROOT / "src" / "glpart" / "cli.py")
    assert sorted(refs & {"later_neighbours", "format_parts", "Counter"}) == []


def _quick_start() -> str:
    """The code of the README's library quick start."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs(capsys):
    exec(compile(_quick_start(), "README.md", "exec"), {})
    assert capsys.readouterr().out


def _is_solve(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (func.id if isinstance(func, ast.Name)
            else getattr(func, "attr", None)) == "solve"


def _positional_uses(tree: ast.AST) -> list[int]:
    """Lines that index or unpack a ``solve(...)`` result, read straight
    off the call or off a name the call was assigned to."""
    names = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _is_solve(node.value)
        for target in node.targets if isinstance(target, ast.Name)
    }

    def result(node) -> bool:
        return _is_solve(node) or isinstance(node, ast.Name) and node.id in names

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and result(node.value):
            lines.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and result(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, (ast.Tuple, ast.List, ast.Starred)) for t in targets):
                lines.append(node.lineno)
    return sorted(lines)


def test_solve_result_is_read_by_field():
    # ``solve`` returns one record; a read by position would break when a
    # field is added, so every caller names the field it reads
    sources = {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for path in sorted((ROOT / "src" / "glpart").glob("*.py"))
        + sorted((ROOT / "tools").glob("*.py"))
    }
    sources["README.md quick start"] = _quick_start()
    found = {name: _positional_uses(ast.parse(text)) for name, text in sources.items()}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the guard sees both forms
    assert _positional_uses(ast.parse(
        "a, b, c = solve(w, r)\nx = glpart.solve(w, r)[0]\ny = solve(w, r)\ny[1]"
    )) == [1, 2, 4]


def test_solve_returns_one_frozen_record():
    sol = glpart.solve(
        glpart.WeightedGraph.unit(glpart.generate_ktree(6, 2, seed=0)),
        glpart.PartitionRequest((0, 1), (3, 3)),
    )
    assert type(sol) is glpart.Solution
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.mode = "chordal-weighted"
    modules = [glpart] + [
        importlib.import_module(f"glpart.{info.name}")
        for info in pkgutil.iter_modules(glpart.__path__)
    ]
    assert [m.__name__ for m in modules if hasattr(m, "PipelineResult")] == []


def _synopsis_flags() -> dict[str, set[str]]:
    """The ``--`` flags of each subcommand in the README's CLI block."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```\n", 2)[1]
    flags: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("glpart "):
            command = flags.setdefault(line.split()[1], set())
        command.update(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def _parser_flags() -> dict[str, set[str]]:
    """The ``--`` flags ``_build_parser()`` gives each subcommand, less --help."""
    sub = next(
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: {
            flag
            for action in parser._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        for name, parser in sub.choices.items()
    }


def test_readme_cli_synopsis_matches_the_parser():
    assert _synopsis_flags() == _parser_flags()


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


def test_solve_runs_every_member_stage():
    # the stage module holds the chords and the contraction plan; solve
    # runs them, the checks and the growth loop, and builds the answer
    path = ROOT / "src" / "glpart" / "almost_chordal.py"
    refs = _references(path)
    assert sorted(refs & {"gl_partition_chordal_weighted", "check_demands",
                          "Solution", "solve"}) == []
    modules = [node.module for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)]
    assert "partition" not in modules
    stages = importlib.import_module("glpart.almost_chordal")
    assert not hasattr(stages, "gl_partition_almost_chordal")


def test_importing_the_cli_loads_no_member_stage():
    # solve imports the member stages only when a member solve runs, so a
    # command that solves no member never loads them
    code = "import sys, glpart.cli; print('glpart.almost_chordal' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


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


def test_atom_subgraphs_are_built_in_one_place():
    # the decomposition builds each atom's subgraph once, for its catalog
    # walk, its hole search and its flow; the peel builds the only other
    users = [p.name for p in sorted((ROOT / "src" / "glpart").glob("*.py"))
             if "induced_subgraph" in _references(p)]
    assert users == ["connectivity.py", "partition.py"]


def test_chordality_witness_is_built_in_one_place():
    # the search and ``peo_violation`` share one walk, so one witness rule
    sites = [
        (path.name, node.lineno)
        for path in sorted((ROOT / "src" / "glpart").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "ChordalityWitness"
    ]
    assert [name for name, _ in sites] == ["chordal.py"], sites


def test_growth_loop_appends_to_a_part_at_one_site():
    # the terminals are seeded by comprehension, so a pick is the only
    # assignment, and it runs inline
    tree = ast.parse((ROOT / "src" / "glpart" / "partition.py").read_text())
    loop = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name == "gl_partition_chordal_weighted"
    )
    nested = [
        node.name for node in ast.walk(loop)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and node is not loop
    ]
    appends = [
        node.lineno for node in ast.walk(loop)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "append"
        and isinstance(node.func.value, ast.Subscript)
        and isinstance(node.func.value.value, ast.Name)
        and node.func.value.value.id == "parts"
    ]
    assert nested == [] and len(appends) == 1, (nested, appends)


def test_library_does_not_import_networkx():
    # networkx checks the library's answers in the tests, so the library
    # must reach them without it
    importers = []
    for path in sorted((ROOT / "src" / "glpart").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "networkx" for m in modules):
                importers.append(path.name)
    assert importers == []
