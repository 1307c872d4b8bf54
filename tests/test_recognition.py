"""Hole search and membership in the supported graph class."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from glpart import Graph, class_violation, generate_almost_chordal
from glpart.c4 import enumerate_induced_c4
from glpart.connectivity import _violator_fill, clique_decomposition
from glpart.graph import induced_subgraph
from glpart.recognition import find_hole, scan_catalog_violations

from bruteforce import (
    bf_atom_edges,
    bf_chordless_cycles,
    bf_class_member,
    bf_has_hole,
    cycle_graph,
    dfs_find_hole,
    edges,
    find_hole_through,
    planted,
    random_chordal,
    random_gnp,
    shared_vertex_member,
    whole_graph_find_hole,
    with_planted_cycle,
    without_edges,
)
from test_graph import random_graph_strategy

PLANTS = ("house", "c4-overlap", "hole", "separator")


def assert_is_hole(g: Graph, cyc: tuple[int, ...]) -> None:
    assert len(cyc) >= 5
    assert len(set(cyc)) == len(cyc)
    m = len(cyc)
    for i, v in enumerate(cyc):
        nxt = cyc[(i + 1) % m]
        assert nxt in g.adj[v]
        # no chords: only ring neighbors inside the cycle
        assert g.adj[v] & set(cyc) == {cyc[(i - 1) % m], nxt}


class TestFindHole:
    def test_c5_is_its_own_hole(self, c5):
        cyc = find_hole(c5)
        assert cyc is not None
        assert_is_hole(c5, cyc)

    def test_none_on_chordal(self, k5, p4):
        assert find_hole(k5) is None
        assert find_hole(p4) is None

    def test_none_on_c4(self, c4):
        assert find_hole(c4) is None

    def test_none_without_vertices(self):
        assert find_hole(Graph(())) is None

    def test_petersen(self, petersen):
        cyc = find_hole(petersen)
        assert cyc is not None
        assert_is_hole(petersen, cyc)

    def test_through_vertex(self, w5):
        # every rim vertex lies on the rim hole; the hub lies on none
        for v in range(5):
            cyc = find_hole_through(w5, v)
            assert cyc is not None and v in cyc
            assert_is_hole(w5, cyc)
        assert find_hole_through(w5, 5) is None

    @given(random_graph_strategy(max_n=9))
    @settings(max_examples=200)
    def test_matches_bruteforce(self, g):
        cyc = find_hole(g)
        if cyc is None:
            assert not bf_has_hole(g)
        else:
            assert_is_hole(g, cyc)

    @given(random_graph_strategy(max_n=8))
    @settings(max_examples=100)
    def test_through_finds_exactly_covered_vertices(self, g):
        on_holes = set()
        for hole in bf_chordless_cycles(g, 5):
            on_holes |= hole
        for v in range(g.n):
            cyc = find_hole_through(g, v)
            if v in on_holes:
                assert cyc is not None and v in cyc
                assert_is_hole(g, cyc)
            else:
                assert cyc is None


class TestAgainstDfsReference:
    """The per-edge test agrees with the depth-first induced-path search."""

    @staticmethod
    def assert_agrees(g: Graph) -> bool:
        ref = dfs_find_hole(g)
        cyc = find_hole(g)
        assert (cyc is None) == (ref is None)
        if cyc is not None:
            assert_is_hole(g, cyc)
        for v in g.vertices():
            cyc = find_hole_through(g, v)
            assert (cyc is None) == (dfs_find_hole(g, through=v) is None), v
            if cyc is not None:
                assert cyc[0] == v
                assert_is_hole(g, cyc)
        return ref is not None

    def test_random_graphs(self):
        rng = random.Random(4)
        found = 0
        for _ in range(60):
            n = rng.randint(10, 30)
            p = rng.choice((0.08, 0.15, 0.3, 0.6))
            found += self.assert_agrees(random_gnp(rng, n, p))
        assert 0 < found < 60

    def test_random_chordal_have_none(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_chordal(rng, rng.randint(10, 30))
            assert not self.assert_agrees(g)

    def test_members_with_planted_hole(self):
        for seed, k, length in [(1, 2, 5), (2, 3, 6), (3, 3, 5), (4, 4, 6)]:
            member = generate_almost_chordal(40, k, 3, seed=seed)
            assert not self.assert_agrees(member)
            g = with_planted_cycle(member, length, tuple(range(k)))
            assert self.assert_agrees(g)
            # a hole through a planted vertex cannot use the clique
            assert set(find_hole_through(g, member.n)) == set(range(member.n, g.n))


class TestClassMembership:
    def test_named(self, c4, c5, house, domino, double_house, w4, w5, k4, k5, p4):
        cases = {
            "c4": (c4, True, None),
            "c5": (c5, False, "hole"),
            "house": (house, False, "house"),
            "domino": (domino, False, "c4-overlap"),
            "double_house": (double_house, False, "house"),
            "w4": (w4, True, None),
            "w5": (w5, False, "hole"),
            "k4": (k4, True, None),
            "k5": (k5, True, None),
            "p4": (p4, True, None),
        }
        for name, (g, member, kind) in cases.items():
            check = class_violation(g)
            assert (check is None) == member, name
            if kind is not None:
                assert check.kind == kind, name

    def test_violation_vertices_are_real(self, house, domino):
        v_house = class_violation(house)
        assert set(v_house.vertices) <= set(range(house.n))
        v_dom = class_violation(domino)
        assert len(set(v_dom.vertices)) >= 6  # union of two overlapping C4

    @given(random_graph_strategy(max_n=9))
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce(self, g):
        assert (class_violation(g) is None) == bf_class_member(g)

    def test_deterministic(self, domino):
        a = class_violation(domino)
        b = class_violation(domino)
        assert a == b


class TestAtomSearch:
    """``find_hole`` searches the atoms of the clique separator
    decomposition, yet reports the very hole a scan of every edge finds."""

    @staticmethod
    def inputs() -> list[Graph]:
        rng = random.Random(21)
        graphs = [random_gnp(rng, rng.randint(4, 12), rng.choice((0.2, 0.3, 0.45)))
                  for _ in range(300)]
        for seed in range(6):
            k = 2 + seed % 3
            member = generate_almost_chordal(30, k, 3, seed=seed)
            graphs.append(member)
            graphs += [planted(member, k, kind) for kind in PLANTS]
            for _ in range(3):
                graphs.append(without_edges(member, rng, rng.randint(1, 3)))
                graphs.append(member.with_edges([tuple(rng.sample(range(member.n), 2))]))
            # several atoms that are not ring + Q: two holes on different
            # anchors, also relabelled so that the first hole edge need not
            # lie in the last atom cut, and a hole beside a small clique
            # separator
            anchor = tuple(sorted(frozenset.intersection(
                *(member.adj[v] for v in enumerate_induced_c4(member)[0]))))
            assert anchor != tuple(range(k))
            two = with_planted_cycle(planted(member, k, "hole"), 6, anchor)
            perm = random.Random(seed).sample(range(two.n), two.n)
            graphs += [two, Graph.from_edges(
                two.n, [(perm[u], perm[v]) for u, v in edges(two)])]
            graphs.append(planted(planted(member, k, "hole"), k, "separator"))
            shared = shared_vertex_member(30, k, 3, 2, seed)
            graphs += [planted(shared, k, kind) for kind in PLANTS]
        return graphs

    def test_matches_whole_graph_search(self):
        split_holes = 0
        for g in self.inputs():
            ref = whole_graph_find_hole(g)
            if g.n <= 12:
                assert (ref is not None) == bf_has_hole(g)
            assert find_hole(g) == ref
            v = class_violation(g)
            if v is None or v.kind == "hole":
                assert (None if v is None else v.vertices) == ref
            # the smallest cut is g.n exactly when nothing was cut
            split_holes += ref is not None and clique_decomposition(g)[1] < g.n
        assert split_holes >= 50

    def test_scanned_atoms_hold_holes(self):
        # the scan's cost condition: once the catalog scans pass, every atom
        # that is not ring + Q holds a hole, so no scanned atom is hole-free
        scanned = several = 0
        for g in self.inputs():
            if scan_catalog_violations(g, enumerate_induced_c4(g)):
                continue
            atoms = [a.ids for a in clique_decomposition(g)[0] if not a.ring]
            for ids in atoms:
                assert find_hole(induced_subgraph(g, ids)[0]) is not None, (g, ids)
            scanned += len(atoms)
            several += len(atoms) > 1
        assert scanned >= 30 and several >= 6

    @pytest.mark.parametrize("k", [3, 4])
    def test_hole_plant_scans_only_holey_atoms(self, hole_calls, k):
        g = planted(generate_almost_chordal(120, k, 6, seed=k), k, "hole")
        violation = class_violation(g)
        spent = len(hole_calls)
        scanned = [(b, c) for n, b, c in hole_calls if n == g.n]
        hole_calls.clear()
        # the same witness for fewer per-edge searches than a scan of g
        assert violation.kind == "hole"
        assert violation.vertices == whole_graph_find_hole(g)
        assert spent < len(hole_calls)
        holey = [set(a.ids) for a in clique_decomposition(g)[0]
                 if find_hole(induced_subgraph(g, a.ids)[0]) is not None]
        assert scanned and all(
            any(b in a and c in a for a in holey) for b, c in scanned
        )

    def test_one_atom_one_search(self, hole_calls, petersen):
        declined = random_gnp(random.Random(14), 30, 0.2)
        assert _violator_fill(declined) is None
        for g in (cycle_graph(12), petersen, declined):
            atoms, cut = clique_decomposition(g)
            assert cut == g.n and [a.ids for a in atoms] == [tuple(g.vertices())]
            find_hole(g)
            spent = len(hole_calls)
            hole_calls.clear()
            whole_graph_find_hole(g)
            assert spent == len(hole_calls)
            hole_calls.clear()

    def test_tries_the_edges_inside_the_other_atoms(self, hole_calls, petersen):
        # the atoms' merged edge lists are the sorted set of edges inside
        # them, so the search makes the very per-edge calls of a scan over
        # that set, on every graph of the tests above
        graphs = self.inputs()
        graphs += [planted(generate_almost_chordal(120, k, 6, seed=k), k, "hole")
                   for k in (3, 4)]
        graphs += [cycle_graph(12), petersen, random_gnp(random.Random(14), 30, 0.2)]
        for g in graphs:
            hole = find_hole(g)
            calls = hole_calls[:]
            hole_calls.clear()
            assert whole_graph_find_hole(g, bf_atom_edges(g)) == hole
            assert hole_calls == calls, g
            hole_calls.clear()
