"""How many certificates a solve and ``glpart check`` compute.

Each graph keeps its 4-cycle catalog and its elimination order in its
memo. The ``builds`` spy replaces ``c4._build_catalog``, the builder behind
``enumerate_induced_c4``'s memo, so it counts real catalog builds and not
memo hits. The ``searches`` spy likewise replaces ``chordal._build_mcs_order``,
the builder behind ``mcs_order``'s memo, so every maximum cardinality
search is counted once. The clique separator decomposition is memoized
too, cut from the elimination game of the input's own search; the
``fills`` and ``atom_builds`` spies count its elimination-game fills and
atom cuts, and ``hole_calls`` (conftest) each per-edge hole search.
"""

from __future__ import annotations

import pytest

from glpart import (
    Instance,
    PartitionRequest,
    WeightedGraph,
    c4,
    chordal,
    connectivity,
    format_instance,
    generate_almost_chordal,
    generate_ktree,
    gl_partition_almost_chordal,
)
from glpart.cli import main

from bruteforce import all_pairs_induced_c4, planted


@pytest.fixture
def builds(monkeypatch):
    """A list that gains one entry per catalog build."""
    calls: list[int] = []
    original = c4._build_catalog

    def spy(g):
        calls.append(g.n)
        return original(g)

    monkeypatch.setattr(c4, "_build_catalog", spy)
    return calls


@pytest.fixture
def searches(monkeypatch):
    """A list that gains the vertex count of each searched graph."""
    calls: list[int] = []
    original = chordal._build_mcs_order

    def spy(g):
        calls.append(g.n)
        return original(g)

    monkeypatch.setattr(chordal, "_build_mcs_order", spy)
    return calls


def _spy(monkeypatch, module, name):
    """A list that gains the vertex count of each graph ``name`` is given."""
    calls: list[int] = []
    original = getattr(module, name)

    def spy(g, *args):
        calls.append(g.n)
        return original(g, *args)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.fixture
def fills(monkeypatch):
    return _spy(monkeypatch, connectivity, "_elimination_fill")


@pytest.fixture
def atom_builds(monkeypatch):
    return _spy(monkeypatch, connectivity, "_clique_atoms")


def _member_request(k: int, chords: int, seed: int):
    """A member whose first ``chords`` rings each hold two opposite
    terminals; the other terminals are off those rings, demands >= 2.

    The rings come from the reference catalog, so the member's memo stays
    empty and the solve's own build is the one counted."""
    cycles = max(chords, 2)
    g = generate_almost_chordal(20 + 4 * cycles, k, cycles, seed=seed)
    rings = all_pairs_induced_c4(g)
    terminals = [t for cyc in rings[:chords] for t in (cyc[0], cyc[2])]
    terminals += [v for v in range(g.n) if v not in terminals][: k - len(terminals)]
    demands = [2] * (k - 1) + [g.n - 2 * (k - 1)]
    return g, PartitionRequest(tuple(sorted(terminals)), tuple(demands))


def _write(tmp_path, g, req) -> str:
    path = tmp_path / "instance.txt"
    path.write_text(format_instance(Instance(WeightedGraph.unit(g), req)))
    return str(path)


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
    path = _write(tmp_path, g, req)
    assert main(["check", path, "--require", "class",
                 "--require", "connectivity"]) == 0
    capsys.readouterr()
    assert builds == [g.n]


@pytest.mark.parametrize("extra", [[], ["--skip-checks"]])
def test_chordal_partition_searches_once(searches, tmp_path, capsys, extra):
    g = generate_ktree(60, 3, seed=7)
    req = PartitionRequest((0, 20, 40), (20, 20, 20))
    assert main(["partition", _write(tmp_path, g, req), *extra]) == 0
    capsys.readouterr()
    assert searches == [g.n]


def test_member_partition_searches_two_graphs(searches, tmp_path, capsys):
    # the input, whose search also orders the elimination game behind its
    # clique separators, and the contracted graph, each once
    g, req = _member_request(3, 0, seed=5)
    assert main(["partition", _write(tmp_path, g, req)]) == 0
    capsys.readouterr()
    assert searches == [g.n, g.n - 2]


def test_member_check_searches_once(searches, tmp_path, capsys):
    g, req = _member_request(3, 0, seed=5)
    assert main(["check", _write(tmp_path, g, req)]) == 0
    capsys.readouterr()
    assert searches == [g.n]


def test_hole_plant_check_searches_once(searches, tmp_path, capsys):
    # recognition and connectivity both read the atoms of the planted graph
    member, req = _member_request(3, 0, seed=5)
    g = planted(member, 3, "hole")
    req = PartitionRequest(req.terminals, (*req.demands[:-1], req.demands[-1] + 5))
    assert main(["check", _write(tmp_path, g, req)]) == 0
    capsys.readouterr()
    assert searches == [g.n]


def test_unchecked_chordal_partition_of_member_searches_once(
        searches, tmp_path, capsys):
    # the order compute_peo rejects is the one the solver grows along
    g, req = _member_request(3, 0, seed=5)
    path = _write(tmp_path, g, req)
    assert main(["partition", path, "--mode", "chordal", "--skip-checks"]) == 0
    capsys.readouterr()
    assert searches == [g.n]


@pytest.mark.parametrize("command", ["partition", "check"])
def test_member_decomposition_is_shared(fills, hole_calls, tmp_path, capsys,
                                        command):
    # recognition and connectivity read one fill of the input, and the
    # hole search only ever sees an atom: a 4-cycle and its k-clique
    g, req = _member_request(3, 0, seed=5)
    assert main([command, _write(tmp_path, g, req)]) == 0
    capsys.readouterr()
    assert fills == [g.n]
    assert hole_calls and max(n for n, _, _ in hole_calls) <= 3 + 4


def test_chordal_check_runs_no_hole_search(hole_calls, atom_builds, tmp_path,
                                           capsys):
    g = generate_ktree(60, 3, seed=7)
    req = PartitionRequest((0, 20, 40), (20, 20, 20))
    assert main(["check", _write(tmp_path, g, req)]) == 0
    capsys.readouterr()
    assert hole_calls == []
    assert atom_builds == []
