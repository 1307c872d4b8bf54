"""Hole search and membership in the supported graph class."""

from __future__ import annotations

import random

from hypothesis import given, settings

from glpart import (
    Graph,
    find_hole,
    generate_almost_chordal,
    is_hh_i42_free,
)

from bruteforce import (
    bf_chordless_cycles,
    bf_class_member,
    bf_has_hole,
    dfs_find_hole,
    find_hole_through,
    random_chordal,
    random_gnp,
)
from test_graph import random_graph_strategy


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


def with_planted_cycle(g: Graph, length: int, clique: tuple[int, ...]) -> Graph:
    """Append a chordless cycle of ``length`` fresh vertices, each joined to
    every vertex of ``clique``."""
    ring = range(g.n, g.n + length)
    edges = list(g.edges())
    edges += [(v, g.n + (v - g.n + 1) % length) for v in ring]
    edges += [(x, v) for x in clique for v in ring]
    return Graph.from_edges(g.n + length, edges)


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
            check = is_hh_i42_free(g)
            assert bool(check) == member, name
            if kind is None:
                assert check.violation is None, name
            else:
                assert check.violation.kind == kind, name

    def test_violation_vertices_are_real(self, house, domino):
        v_house = is_hh_i42_free(house).violation
        assert set(v_house.vertices) <= set(range(house.n))
        v_dom = is_hh_i42_free(domino).violation
        assert len(set(v_dom.vertices)) >= 6  # union of two overlapping C4

    @given(random_graph_strategy(max_n=9))
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce(self, g):
        assert bool(is_hh_i42_free(g)) == bf_class_member(g)

    def test_deterministic(self, domino):
        a = is_hh_i42_free(domino)
        b = is_hh_i42_free(domino)
        assert a == b
