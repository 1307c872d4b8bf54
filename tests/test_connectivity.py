"""Vertex connectivity decisions and minimal separator enumeration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from glpart import (
    CapError,
    Graph,
    vertex_connectivity_at_least,
)

from bruteforce import (
    _separates,
    bf_minimal_separators,
    bf_vertex_connectivity,
    enumerate_minimal_separators,
)
from test_graph import random_graph_strategy


def exact_kappa(g: Graph) -> int:
    k = 0
    while vertex_connectivity_at_least(g, k + 1):
        k += 1
    return k


class TestVertexConnectivity:
    @pytest.mark.parametrize(
        "fixture,kappa",
        [
            ("c4", 2), ("c5", 2), ("house", 2), ("domino", 2),
            ("double_house", 2), ("w4", 3), ("w5", 3),
            ("k4", 3), ("k5", 4), ("p4", 1), ("petersen", 3),
        ],
    )
    def test_named_values(self, fixture, kappa, request):
        g = request.getfixturevalue(fixture)
        assert exact_kappa(g) == kappa

    def test_result_is_truthy(self, k4):
        assert vertex_connectivity_at_least(k4, 3)
        assert not vertex_connectivity_at_least(k4, 4)

    def test_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        res = vertex_connectivity_at_least(g, 1)
        assert not res
        assert res.witness is not None
        assert res.witness.separator == frozenset()

    def test_complete_has_no_witness(self, k5):
        res = vertex_connectivity_at_least(k5, 5)
        assert not res and res.witness is None
        assert "complete" in res.reason

    def test_witness_separator_separates(self, petersen):
        res = vertex_connectivity_at_least(petersen, 4)
        assert not res
        wit = res.witness
        assert len(wit.separator) == 3
        u, v = wit.separated_pair
        assert _separates(petersen, set(wit.separator), u, v)

    def test_nonpositive_k_rejected(self, p4):
        with pytest.raises(ValueError):
            vertex_connectivity_at_least(p4, 0)

    @given(random_graph_strategy(max_n=8))
    @settings(max_examples=100, deadline=None)
    def test_matches_bruteforce(self, g):
        assert exact_kappa(g) == bf_vertex_connectivity(g)

    @given(random_graph_strategy(max_n=8))
    @settings(max_examples=100, deadline=None)
    def test_witness_always_genuine(self, g):
        kappa = bf_vertex_connectivity(g)
        res = vertex_connectivity_at_least(g, kappa + 1)
        assert not res
        if res.witness is not None:
            sep = set(res.witness.separator)
            assert len(sep) <= kappa
            u, v = res.witness.separated_pair
            assert _separates(g, sep, u, v)


class TestMinimalSeparators:
    def test_path(self, p4):
        seps = set(enumerate_minimal_separators(p4))
        assert seps == {frozenset({1}), frozenset({2})}

    def test_c4(self, c4):
        seps = set(enumerate_minimal_separators(c4))
        assert seps == {frozenset({0, 2}), frozenset({1, 3})}

    def test_complete_has_none(self, k4):
        assert enumerate_minimal_separators(k4) == []

    def test_max_size_filter(self, petersen):
        small = enumerate_minimal_separators(petersen, max_size=2)
        assert small == []

    def test_cap_enforced(self):
        g = Graph.path(15)
        with pytest.raises(CapError):
            enumerate_minimal_separators(g)
        assert enumerate_minimal_separators(g, cap_n=15)

    @given(random_graph_strategy(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce(self, g):
        got = set(enumerate_minimal_separators(g))
        assert got == bf_minimal_separators(g)
