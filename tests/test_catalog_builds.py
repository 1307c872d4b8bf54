"""How many certificates a solve and ``glpart check`` compute.

Each graph keeps its 4-cycle catalog and its maximum cardinality search
in its memo. The ``builds`` spy replaces ``c4._build_catalog``, the walker
``enumerate_induced_c4`` runs on atoms that are not ring + Q and on graphs
that are their own only atom, so it counts real walks and not memo hits.
The ``searches`` spy likewise replaces ``chordal._build_mcs_order``, the
builder behind the ``mcs_search`` memo that ``mcs_order`` reads, so every
search is counted once. The search certifies its own order, so a solve
never calls ``chordal.peo_violation``, the order-agnostic checker;
``peo_checks`` counts those calls. The clique separator
decomposition is memoized too, cut from the elimination game of the
graph's own search; the ``fills`` and ``atom_builds`` spies count its
elimination-game fills and atom cuts, ``cut_steps`` the positions the cut
takes one at a time, ``subgraphs`` the induced subgraphs built, one per
atom that is not ring + Q and one per peel, and ``hole_calls`` and
``flow_sizes`` (conftest) each per-edge hole search and each
connectivity flow.

Every graph's catalog is read off its atoms, whether or not checks ran,
except the peeled graph's, which is the input's less the cycles through
a peeled terminal. On a class member every non-complete atom is ring + Q,
an induced 4-cycle joined to a clique that sees all of it, so the catalog
of the input and of the graph with the added chords is a list of rings,
with no walk, no hole search and no flow.
"""

from __future__ import annotations

import random
import sys
from collections import Counter

import pytest

from glpart import (
    Graph,
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
    solve,
)
from glpart.c4 import enumerate_induced_c4
from glpart.cli import main

from bruteforce import (
    all_pairs_induced_c4,
    format_instance,
    member_plan,
    planted,
    random_gnp,
    shared_vertex_member,
)


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
    return _spy(monkeypatch, chordal, "peo_violation")


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
    res = solve(WeightedGraph.unit(g), req, mode="almost-chordal")
    assert res.added_chords == ()
    assert len(res.contraction_edges) == 2
    assert enumerate_induced_c4(g) == all_pairs_induced_c4(g)
    assert builds == []
    assert hole_calls == []
    assert flow_sizes == []


@pytest.mark.parametrize("k,chords", [(3, 1), (4, 1), (4, 2), (6, 3)])
def test_all_chords_cost_no_walk(builds, k, chords):
    # one round reads the atoms' catalog and adds every chord, and the
    # chorded graph's atoms show none left: a chorded ring and its clique
    # are cut into complete atoms
    g, req = _member_request(k, chords, seed=k)
    res = solve(WeightedGraph.unit(g), req, mode="almost-chordal")
    assert len(res.added_chords) == chords
    assert builds == []


@pytest.mark.parametrize("k", [3, 4])
def test_hole_plant_walks_only_its_hole_atom(builds, k):
    # the rings come with no walk; only the atom that is not ring + Q, the
    # planted C5 with the k-clique it hangs from, is walked on its own
    g = planted(generate_almost_chordal(60, k, 3, seed=k), k, "hole")
    builds.clear()  # planted() reads the member's catalog
    violation = recognition.class_violation(g)
    assert violation.kind == "hole"
    others = [a for a in connectivity.clique_decomposition(g)[0] if not a.ring]
    assert [len(a.ids) for a in others] == [k + 5]
    assert builds == [k + 5]
    assert enumerate_induced_c4(g) == all_pairs_induced_c4(g)


def _member_cases():
    """(member, request) pairs on disjoint-ring and shared-vertex members
    with k = 3 and 4: with and without two terminals opposite on a ring,
    which take a chord, and with and without a last terminal of demand 1,
    which is peeled. The first terminal takes the rest of the vertices."""
    for k in (3, 4):
        for g in (generate_almost_chordal(40, k, 4, seed=k),
                  shared_vertex_member(40, k, 4, 2, seed=k)):
            ring = all_pairs_induced_c4(g)[0]
            for chord in (False, True):
                terminals = list(ring[0::2]) if chord else []
                terminals += [v for v in g.vertices() if v not in ring][
                    :k - len(terminals)]
                for peel in (False, True):
                    rest = [2] * (k - 2) + [1 if peel else 2]
                    demands = (g.n - sum(rest), *rest)
                    yield g, PartitionRequest(tuple(terminals), demands)


@pytest.mark.parametrize("extra", [[], ["--skip-checks"]],
                         ids=["checked", "skip-checks"])
def test_member_partition_walks_no_catalog(builds, tmp_path, capsys, extra):
    # the catalogs of the input, the peeled graph and the chorded graph are
    # all read off ring + Q atoms, whether or not checks run
    for g, req in _member_cases():
        assert main(["partition", _write(tmp_path, g, req), *extra]) == 0
    capsys.readouterr()
    assert builds == []


def test_unchecked_solve_does_no_more_work(builds, searches, atom_builds):
    # validation only decides whether a failed check raises, so a solve
    # without it searches, cuts and walks a subset of what a checked solve
    # does
    shapes = set()
    for g, req in _member_cases():
        work = []
        for validate in (True, False):
            for spy in (builds, searches, atom_builds):
                spy.clear()
            res = solve(
                WeightedGraph.unit(Graph(g.adj)), req, mode="almost-chordal",
                validate=validate)
            work.append([Counter(searches), Counter(atom_builds), Counter(builds)])
        checked, unchecked = work
        assert all(u <= c for u, c in zip(unchecked, checked)), (g.n, req)
        shapes.add((bool(res.added_chords), bool(res.peeled)))
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def test_peeled_graph_is_neither_searched_nor_cut(searches, atom_builds):
    # the peeled graph takes its catalog off the input's, so a validated,
    # peeled, chord-free solve searches the input and the contracted graph
    # and cuts only the input
    solves = 0
    for g, req in _member_cases():
        searches.clear()
        atom_builds.clear()
        res = solve(WeightedGraph.unit(Graph(g.adj)), req, mode="almost-chordal")
        if res.peeled and not res.added_chords:
            seen, cut = list(searches), list(atom_builds)
            contracted = member_plan(WeightedGraph.unit(g), req).contracted
            assert seen == [g.n, contracted.n], (g.n, req)
            assert cut == [g.n], (g.n, req)
            solves += 1
    assert solves == 4


@pytest.mark.parametrize("command", ["partition", "check"])
def test_member_lists_no_edges(monkeypatch, tmp_path, capsys, command):
    # no atom needs a hole search, so no atom's edges are listed
    g, req = _member_request(3, 0, seed=5)
    path = _write(tmp_path, g, req)
    listed = []
    edges_of = recognition._edges_of

    def spy(atom):
        listed.append(atom.ids)
        return edges_of(atom)

    monkeypatch.setattr(recognition, "_edges_of", spy)
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
    # one violator per ring passes fill to its parent, so 16 vertices are
    # worked; the cut takes only the 8 filled positions one at a time, and
    # every other position goes in bulk
    g = generate_almost_chordal(200, 3, 8, seed=1)
    search = chordal.mcs_search(g)
    fill, passed = connectivity._violator_fill(g)
    assert passed == set(search.violators) and len(passed) == len(fill) == 8
    assert passed.isdisjoint(fill)
    atoms, cut = connectivity.clique_decomposition(g)
    assert len(atoms) == 8 and all(a.ring for a in atoms) and cut == 3
    assert fills == [g.n, g.n]  # the call above and the decomposition's
    assert sorted(cut_steps) == sorted(fill)


def test_ktree_cut_does_no_work(cut_steps):
    # no violator, so the fill works no vertex, and every position before
    # the tail is cut in bulk
    g = generate_ktree(200, 3, seed=1)
    assert chordal.mcs_search(g).violators == ()
    assert connectivity._violator_fill(g) == ({}, set())
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
    searches.clear()  # planted() reads the member's catalog
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


def _atom_cases():
    """(graph, k): each planted kind in one member, k = 3 and 4, and a
    ``gnp`` graph cut into three atoms that are not ring + Q."""
    for k in (3, 4):
        member = generate_almost_chordal(100, k, 4, seed=2)
        for kind in ("hole", "house", "c4-overlap", "separator"):
            yield planted(member, k, kind), k
    yield random_gnp(random.Random(8), 30, 0.1), 3


def test_check_builds_each_atom_once(subgraphs, tmp_path, capsys):
    # the catalog walk, the hole search and the flow of an atom that is not
    # ring + Q all read the one subgraph the decomposition built for it
    built = 0
    for g, k in _atom_cases():
        others = [list(a.ids) for a in
                  connectivity.clique_decomposition(Graph(g.adj))[0] if not a.ring]
        subgraphs.clear()
        req = PartitionRequest(tuple(range(k)), (*[1] * (k - 1), g.n - k + 1))
        code = main(["check", _write(tmp_path, g, req), "--require", "class",
                     "--require", "connectivity"])
        capsys.readouterr()
        assert code in (0, 2) and subgraphs == others, (g.n, k)
        built += len(others)
    assert built == 5


def test_member_partition_builds_no_atom(subgraphs, hole_calls, tmp_path,
                                         capsys):
    # every atom of the input and of the chorded graph is ring + Q, so the
    # only subgraph a validated solve builds is the peeled graph
    for g, req in _member_cases():
        subgraphs.clear()
        assert main(["partition", _write(tmp_path, g, req)]) == 0
        peeled = {t for t, d in zip(req.terminals, req.demands) if d == 1}
        assert subgraphs == ([[v for v in g.vertices() if v not in peeled]]
                             if peeled else [])
    capsys.readouterr()
    assert hole_calls == []


def test_chordal_check_runs_no_hole_search(hole_calls, atom_builds, builds,
                                           tmp_path, capsys):
    g = generate_ktree(60, 3, seed=7)
    req = PartitionRequest((0, 20, 40), (20, 20, 20))
    assert main(["check", _write(tmp_path, g, req)]) == 0
    capsys.readouterr()
    assert hole_calls == []
    assert atom_builds == []
    assert builds == []
