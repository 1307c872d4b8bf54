"""How many 4-cycle catalogs a validated solve and ``glpart check`` build.

The spy replaces ``enumerate_induced_c4`` in every ``glpart`` module that
imports it, so a build anywhere in the package is counted.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import glpart
from glpart import (
    Instance,
    PartitionRequest,
    WeightedGraph,
    c4,
    enumerate_induced_c4,
    format_instance,
    generate_almost_chordal,
    gl_partition_almost_chordal,
)
from glpart.cli import main


@pytest.fixture
def builds(monkeypatch):
    """A list that gains one entry per catalog build."""
    calls: list[int] = []
    original = c4.enumerate_induced_c4

    def spy(g):
        calls.append(g.n)
        return original(g)

    spied = set()
    for info in pkgutil.iter_modules(glpart.__path__):
        mod = importlib.import_module(f"glpart.{info.name}")
        if getattr(mod, "enumerate_induced_c4", None) is original:
            monkeypatch.setattr(mod, "enumerate_induced_c4", spy)
            spied.add(info.name)
    assert {"almost_chordal", "c4", "connectivity", "recognition"} <= spied
    return calls


def _member_request(k: int, chords: int, seed: int):
    """A member whose first ``chords`` rings each hold two opposite
    terminals; the other terminals are off those rings, demands >= 2."""
    cycles = max(chords, 2)
    g = generate_almost_chordal(20 + 4 * cycles, k, cycles, seed=seed)
    rings = enumerate_induced_c4(g).cycles
    terminals = [t for cyc in rings[:chords] for t in (cyc[0], cyc[2])]
    terminals += [v for v in range(g.n) if v not in terminals][: k - len(terminals)]
    demands = [2] * (k - 1) + [g.n - 2 * (k - 1)]
    return g, PartitionRequest(tuple(sorted(terminals)), tuple(demands))


@pytest.mark.parametrize("k", [3, 4])
def test_validated_solve_builds_one_catalog(builds, k):
    g, req = _member_request(k, 0, seed=k)
    res = gl_partition_almost_chordal(WeightedGraph.unit(g), req)
    assert res.added_chords == ()
    assert res.c4_count == 2
    assert builds == [g.n]


@pytest.mark.parametrize("k,chords", [(3, 1), (4, 1), (4, 2)])
def test_each_chord_costs_one_build(builds, k, chords):
    g, req = _member_request(k, chords, seed=k)
    res = gl_partition_almost_chordal(WeightedGraph.unit(g), req)
    assert len(res.added_chords) == chords
    assert len(builds) == 1 + chords


def test_check_builds_one_catalog(builds, tmp_path, capsys):
    g, req = _member_request(3, 0, seed=5)
    path = tmp_path / "member.txt"
    path.write_text(format_instance(Instance(WeightedGraph.unit(g), req)))
    assert main(["check", str(path), "--require", "class",
                 "--require", "connectivity"]) == 0
    capsys.readouterr()
    assert builds == [g.n]
