"""The CLI pauses the cyclic collector for each command.

``cli.main`` turns the collector off while a command runs and gives the
caller back the state it found. That is safe only while no command leaves
reference cycles behind, so a census runs every kind of command in-process
and requires that the collector finds nothing unreachable after each one.
"""

from __future__ import annotations

import ast
import gc
from collections import Counter
from pathlib import Path

import pytest

import glpart
from glpart import Graph, Instance, PartitionRequest, WeightedGraph, cli
from glpart.cli import main
from glpart.instances import parse_instance

from bruteforce import cycle_graph, format_instance, planted

# the defects perfbench plants next to a member's 4-cycle
PLANTS = ("house", "c4-overlap", "hole", "separator")


def write_instance(tmp_path, inst, name):
    p = tmp_path / name
    p.write_text(format_instance(inst))
    return str(p)


def run(argv) -> int:
    """``main``'s exit code, also when argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def stall_argv(tmp_path) -> list[str]:
    """A ``partition`` that stalls: a tree is only 1-connected, and the
    unchecked weighted loop runs out of vertices next to an open part."""
    tree = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 4)])
    path = write_instance(tmp_path, Instance(
        WeightedGraph(tree, (1, 1, 1, 1, 2)), PartitionRequest((3, 2, 0), (1, 4, 1))),
        "tree.txt")
    return ["partition", path, "--mode", "chordal", "--skip-checks"]


def with_defect(inst: Instance, kind: str) -> Instance:
    """``inst`` with one planted defect; the last part takes the new vertices."""
    g = planted(inst.graph, inst.request.k, kind)
    demands = inst.request.demands[:-1] + (
        inst.request.demands[-1] + g.n - inst.graph.n,)
    return Instance(WeightedGraph.unit(g),
                    PartitionRequest(inst.request.terminals, demands))


@pytest.fixture
def corpus(tmp_path, capsys):
    """(argv, exit code) for every kind of command the CLI runs."""
    ktree, member, weighted = (str(tmp_path / f) for f in
                               ("ktree.txt", "member.txt", "weighted.txt"))
    for argv in (
        ["generate", "--n", "80", "--k", "3", "--seed", "1", "--out", ktree],
        ["generate", "--n", "80", "--k", "3", "--seed", "2", "--cycles", "3",
         "--out", member],
        ["generate", "--n", "80", "--k", "3", "--seed", "3", "--cycles", "3",
         "--max-weight", "4", "--out", weighted],
    ):
        assert main(argv) == 0
    base = parse_instance(Path(member).read_text())
    nonmembers = [write_instance(tmp_path, with_defect(base, kind), f"{kind}.txt")
                  for kind in PLANTS]
    ring = write_instance(tmp_path, Instance(
        WeightedGraph.unit(cycle_graph(30)), PartitionRequest((0, 15), (15, 15))),
        "ring.txt")
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("3 2 2\n1 1 x\n0 1\n1 2\n")
    parts = str(tmp_path / "parts.json")
    assert main(["partition", ktree, "--out", parts]) == 0
    capsys.readouterr()

    cases = []
    for path in (ktree, weighted):
        cases += [(["partition", path], 0), (["partition", path, "--skip-checks"], 0)]
    for path in nonmembers:
        cases += [
            (["check", path, "--require", "class", "--require", "connectivity"], 2),
            (["partition", path], 2),
        ]
    cases += [
        (["check", ring], 0),
        (["partition", ring], 2),
        (["check", str(garbled)], 3),
        (stall_argv(tmp_path), 1),
        (["verify", ktree, parts], 0),
        (["generate", "--n", "60", "--k", "3", "--seed", "4"], 0),
        (["generate", "--n", "60", "--k", "3", "--seed", "4", "--cycles", "2"], 0),
        (["oracle-compare", "--trials", "3"], 0),
        (["oracle-compare", "--trials", "3", "--cycles", "1"], 0),
    ]
    return cases


def unreachable_after(argv) -> tuple[int, int, Counter]:
    """Run one command, then collect: (exit code, objects found, their types)."""
    gc.collect()
    code = run(argv)
    flags = gc.get_debug()
    # keep what the collector finds in gc.garbage, so it can be named
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        found = gc.collect()
        kinds = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.collect()
    return code, found, kinds


def test_commands_leave_no_reference_cycles(corpus, capsys):
    for argv, expected in corpus:
        code, found, kinds = unreachable_after(argv)
        capsys.readouterr()
        assert code == expected, argv
        assert found == 0, (argv, kinds.most_common())


@pytest.mark.parametrize("argv", [["--help"], ["check", "x.txt", "--no-such-flag"]])
def test_argparse_leaves_only_its_help_formatter(argv, capsys):
    # argparse's HelpFormatter and its sections refer to each other, so
    # each usage or help text it formats leaves that cycle, and no glpart
    # object, for the caller's collector once main has returned
    code, found, kinds = unreachable_after(argv)
    capsys.readouterr()
    assert code in (0, 2)
    assert kinds["HelpFormatter"] == 1
    assert set(kinds) <= {"HelpFormatter", "_Section", "method", "list", "tuple"}, kinds


@pytest.fixture
def restore_collector():
    """Put the collector back as it was before the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("start", [True, False], ids=["enabled", "disabled"])
def test_main_restores_the_collector_state(
    start, restore_collector, tmp_path, capsys, monkeypatch
):
    c4 = write_instance(tmp_path, Instance(
        WeightedGraph.unit(cycle_graph(4)), PartitionRequest((0, 1), (2, 2))),
        "c4.txt")
    cases = [
        (["check", c4], 0),
        (stall_argv(tmp_path), 1),
        (["check", c4, "--require", "chordal"], 2),
        (["check", str(tmp_path / "missing.txt")], 3),
        (["--help"], 0),
        (["check", c4, "--no-such-flag"], 2),
    ]
    for argv, expected in cases:
        (gc.enable if start else gc.disable)()
        assert run(argv) == expected, argv
        assert gc.isenabled() is start, argv
    capsys.readouterr()

    def broken(path):
        raise RuntimeError("reader failed")

    monkeypatch.setattr(cli, "load_instance", broken)
    (gc.enable if start else gc.disable)()
    with pytest.raises(RuntimeError, match="reader failed"):
        main(["check", c4])
    assert gc.isenabled() is start


def test_only_the_cli_imports_gc():
    importers = []
    for path in sorted(Path(glpart.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.level == 0 else []
            else:
                continue
            if any(name == "gc" or name.startswith("gc.") for name in names):
                importers.append(path.name)
    assert importers == ["cli.py"]
