"""Hole search and membership in the supported graph class."""

from __future__ import annotations

from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from glpart import (
    Graph,
    SearchBudgetExceededError,
    find_hole,
    find_hole_through,
    is_hh_i42_free,
)
from glpart import recognition

from bruteforce import (
    bf_chordless_cycles,
    bf_class_member,
    bf_has_hole,
    recursive_induced_path_to,
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

    def test_budget_exhaustion_raises(self, petersen):
        with pytest.raises(SearchBudgetExceededError):
            find_hole_through(petersen, 0, budget=1)

    @given(random_graph_strategy(max_n=9))
    @settings(max_examples=200)
    def test_matches_bruteforce(self, g):
        cyc = find_hole(g)
        if cyc is None:
            assert not bf_has_hole(g)
        else:
            assert_is_hole(g, cyc)

    @given(random_graph_strategy(max_n=9), st.integers(1, 60))
    @settings(max_examples=200)
    def test_same_walk_as_recursive_reference(self, g, budget):
        def outcome():
            try:
                return find_hole(g, budget=budget)
            except SearchBudgetExceededError:
                return "budget exceeded"

        got = outcome()
        with patch.object(recognition, "_induced_path_to", recursive_induced_path_to):
            assert outcome() == got

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
