"""How many certificates a solve and ``glpart check`` compute.

Each graph keeps its 4-cycle catalog and its maximum cardinality search
in its memo. The ``builds`` spy replaces ``c4._build_catalog``, the builder
behind ``enumerate_induced_c4``'s memo, so it counts real catalog builds
and not memo hits. The ``searches`` spy likewise replaces
``chordal._build_mcs_order``, the builder behind the ``mcs_search`` memo
that ``mcs_order`` reads, so every search is counted once. The search
certifies its own order, so a solve never calls ``chordal._violation``,
the order-agnostic checker behind ``peo_violation``; ``peo_checks``
counts those calls. The clique separator
decomposition is memoized too, cut from the elimination game of the
input's own search; the ``fills`` and ``atom_builds`` spies count its
elimination-game fills and atom cuts, ``cut_steps`` the positions the cut
takes one at a time, ``subgraphs`` the induced subgraphs built of its
atoms, and ``hole_calls`` and ``flow_sizes`` (conftest) each per-edge hole
search and each connectivity flow.

On a class member every non-complete atom is ring + Q, an induced 4-cycle
joined to a clique that sees all of it, so the input's catalog is read off
the atoms' rings with no walk, no hole search runs and no flow runs. Only
the graph with all the added chords gets a walk of its own.
"""

from __future__ import annotations

import sys

import pytest

from glpart import (
    Instance,
    PartitionRequest,
    WeightedGraph,
    c4,
    chordal,
    connectivity,
    generate_almost_chordal,
    generate_ktree,
    graph,
    recognition,
)
from glpart.almost_chordal import gl_partition_almost_chordal
from glpart.c4 import enumerate_induced_c4
from glpart.cli import main

from bruteforce import all_pairs_induced_c4, format_instance, planted


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
def peo_checks(monkeypatch):
    return _spy(monkeypatch, chordal, "_violation")


@pytest.fixture
def fills(monkeypatch):
    return _spy(monkeypatch, connectivity, "_violator_fill")


@pytest.fixture
def atom_builds(monkeypatch):
    return _spy(monkeypatch, connectivity, "_clique_cut")


@pytest.fixture
def cut_steps(monkeypatch):
    """A list that gains the vertex of each position the cut takes alone."""
    calls: list[int] = []
    original = connectivity._cut_at

    def spy(g, x, *args):
        calls.append(x)
        return original(g, x, *args)

    monkeypatch.setattr(connectivity, "_cut_at", spy)
    return calls


@pytest.fixture
def subgraphs(monkeypatch):
    """A list that gains the sorted vertex list of each induced subgraph
    built anywhere in glpart."""
    calls: list[list[int]] = []
    original = graph.induced_subgraph

    def spy(g, s):
        sub, ids = original(g, s)
        calls.append(list(ids))
        return sub, ids

    for name, module in list(sys.modules.items()):
        if name.startswith("glpart.") and getattr(
                module, "induced_subgraph", None) is original:
            monkeypatch.setattr(module, "induced_subgraph", spy)
    return calls


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
def test_validated_solve_builds_one_catalog(builds, hole_calls, flow_sizes, k):
    # the one catalog comes from the atoms' rings, not from a walk
    g, req = _member_request(k, 0, seed=k)
    res = gl_partition_almost_chordal(WeightedGraph.unit(g), req)
    assert res.added_chords == ()
    assert res.c4_count == 2
    assert enumerate_induced_c4(g) == all_pairs_induced_c4(g)
    assert builds == []
    assert hole_calls == []
    assert flow_sizes == []


@pytest.mark.parametrize("k,chords", [(3, 1), (4, 1), (4, 2), (6, 3)])
def test_all_chords_cost_one_build(builds, k, chords):
    # one round reads the atoms' catalog and adds every chord, and the
    # chorded graph's walk finds none left
    g, req = _member_request(k, chords, seed=k)
    res = gl_partition_almost_chordal(WeightedGraph.unit(g), req)
    assert len(res.added_chords) == chords
    assert builds == [g.n]


@pytest.mark.parametrize("k", [3, 4])
def test_hole_plant_walks_only_its_hole_atom(builds, k):
    # the rings come with no walk; only the atom that is not ring + Q, the
    # planted C5 with the k-clique it hangs from, is walked on its own
    g = planted(generate_almost_chordal(60, k, 3, seed=k), k, "hole")
    builds.clear()  # planted() reads the member's catalog
    violation = recognition.is_hh_i42_free(g).violation
    assert violation.kind == "hole"
    others = [a for a in connectivity.clique_decomposition(g)[0] if not a.ring]
    assert [len(a.ids) for a in others] == [k + 5]
    assert builds == [k + 5]
    assert enumerate_induced_c4(g) == all_pairs_induced_c4(g)


@pytest.mark.parametrize("command", ["partition", "check"])
def test_member_lists_no_edges(monkeypatch, tmp_path, capsys, command):
    # no atom needs a hole search, so no edge list of the input is built
    g, req = _member_request(3, 0, seed=5)
    path = _write(tmp_path, g, req)
    listed = _spy(monkeypatch, graph.Graph, "edges")
    assert main([command, path]) == 0
    capsys.readouterr()
    assert listed == []


def test_member_partition_tests_few_cliques(monkeypatch, tmp_path, capsys):
    # no later set gets an is_clique test: the one per ring that passed
    # fill on is known to be no clique, the filled vertex's own holds no
    # filled vertex, and what is left at the end is the search's first
    # clique
    g = generate_almost_chordal(200, 3, 8, seed=1)
    req = PartitionRequest((0, 1, 2), (2, 2, g.n - 4))
    path = _write(tmp_path, g, req)
    tested = _spy(monkeypatch, graph.Graph, "is_clique")
    assert main(["partition", path]) == 0
    capsys.readouterr()
    assert tested == []


def test_member_work_only_where_not_chordal(fills, cut_steps):
    # one violator per ring passes fill to its parent, and only those 16
    # vertices are worked; the cut takes only the 8 filled positions one at
    # a time, and every other position goes in bulk
    g = generate_almost_chordal(200, 3, 8, seed=1)
    search = chordal.mcs_search(g)
    fill, passed, later = connectivity._violator_fill(g)
    assert len(search.violators) == len(fill) == 8
    assert set(passed) | set(later) == set(search.violators) | set(fill)
    assert len(set(passed) | set(later)) == 16
    atoms, cut = connectivity.clique_decomposition(g)
    assert len(atoms) == 8 and all(a.ring for a in atoms) and cut == 3
    assert fills == [g.n, g.n]  # the call above and the decomposition's
    assert sorted(cut_steps) == sorted(fill)


def test_ktree_cut_does_no_work(cut_steps):
    # no violator, so the fill works no vertex, and every position before
    # the tail is cut in bulk
    g = generate_ktree(200, 3, seed=1)
    assert chordal.mcs_search(g).violators == ()
    assert connectivity._violator_fill(g) == ({}, set(), {})
    assert connectivity.clique_decomposition(g) == ([], 3)
    assert cut_steps == []


def test_check_builds_one_catalog(builds, hole_calls, flow_sizes, tmp_path,
                                  capsys):
    g, req = _member_request(3, 0, seed=5)
    path = _write(tmp_path, g, req)
    assert main(["check", path, "--require", "class",
                 "--require", "connectivity"]) == 0
    capsys.readouterr()
    assert builds == []
    assert hole_calls == []
    assert flow_sizes == []


@pytest.mark.parametrize("extra", [[], ["--skip-checks"]])
def test_chordal_partition_searches_once(searches, peo_checks, tmp_path, capsys,
                                        extra):
    g = generate_ktree(60, 3, seed=7)
    req = PartitionRequest((0, 20, 40), (20, 20, 20))
    assert main(["partition", _write(tmp_path, g, req), *extra]) == 0
    capsys.readouterr()
    assert searches == [g.n]
    assert peo_checks == []


def test_member_partition_searches_two_graphs(searches, tmp_path, capsys):
    # the input, whose search also orders the elimination game behind its
    # clique separators, and the contracted graph, each once
    g, req = _member_request(3, 0, seed=5)
    assert main(["partition", _write(tmp_path, g, req)]) == 0
    capsys.readouterr()
    assert searches == [g.n, g.n - 2]


def test_member_check_searches_once(searches, peo_checks, tmp_path, capsys):
    g, req = _member_request(3, 0, seed=5)
    assert main(["check", _write(tmp_path, g, req)]) == 0
    capsys.readouterr()
    assert searches == [g.n]
    assert peo_checks == []


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
    # the order the search rejects is the one the solver grows along
    g, req = _member_request(3, 0, seed=5)
    path = _write(tmp_path, g, req)
    assert main(["partition", path, "--mode", "chordal", "--skip-checks"]) == 0
    capsys.readouterr()
    assert searches == [g.n]


@pytest.mark.parametrize("command", ["partition", "check"])
def test_member_decomposition_is_shared(fills, builds, hole_calls, flow_sizes,
                                        tmp_path, capsys, command):
    # recognition and connectivity read one fill of the input, and each of
    # its atoms, a 4-cycle and its k-clique, needs no walk, no hole search
    # and no flow
    g, req = _member_request(3, 0, seed=5)
    assert main([command, _write(tmp_path, g, req)]) == 0
    capsys.readouterr()
    assert fills == [g.n]
    assert builds == []
    assert hole_calls == []
    assert flow_sizes == []


@pytest.mark.parametrize("command", ["partition", "check"])
def test_member_builds_no_subgraph(subgraphs, tmp_path, capsys, command):
    # each non-complete atom is ring + Q, which recognition and connectivity
    # test on the member itself, so no atom's subgraph is built
    g = generate_almost_chordal(200, 3, 8, seed=1)
    req = PartitionRequest((0, 1, 2), (2, 2, g.n - 4))
    atoms, _ = connectivity.clique_decomposition(g)
    assert len(atoms) == 8 and all(a.ring for a in atoms)
    assert main([command, _write(tmp_path, g, req)]) == 0
    capsys.readouterr()
    assert subgraphs == []


def test_chordal_check_runs_no_hole_search(hole_calls, atom_builds, builds,
                                           tmp_path, capsys):
    g = generate_ktree(60, 3, seed=7)
    req = PartitionRequest((0, 20, 40), (20, 20, 20))
    assert main(["check", _write(tmp_path, g, req)]) == 0
    capsys.readouterr()
    assert hole_calls == []
    assert atom_builds == []
    assert builds == []
