"""Vertex connectivity decisions and minimal separator enumeration."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from glpart import (
    CapError,
    Graph,
    vertex_connectivity_at_least,
)
from glpart.connectivity import _flow_connectivity

from bruteforce import (
    _separates,
    bf_is_connected,
    bf_minimal_separators,
    bf_vertex_connectivity,
    enumerate_minimal_separators,
    random_chordal,
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


def chordal_graphs(min_n: int, max_n: int):
    return st.builds(
        lambda seed, n: random_chordal(random.Random(seed), n),
        st.integers(0, 2**32 - 1),
        st.integers(min_n, max_n),
    )


def assert_genuine_failure(g: Graph, k: int, res) -> None:
    assert not res
    if g.is_complete():
        assert res.witness is None
        return
    sep = set(res.witness.separator)
    assert len(sep) < k
    u, v = res.witness.separated_pair
    assert _separates(g, sep, u, v)


class TestChordalMethod:
    """The minimal-separator reading on chordal graphs that are not k-trees."""

    def test_glued_cliques(self):
        # two K4 sharing the edge (2, 3): kappa 2, the shared edge separates
        g = Graph.from_edges(
            6, [(a, b) for a in range(4) for b in range(a + 1, 4)]
            + [(a, b) for a in (2, 3, 4, 5) for b in (2, 3, 4, 5) if a < b],
        )
        assert vertex_connectivity_at_least(g, 2)
        res = vertex_connectivity_at_least(g, 3)
        assert res.witness.separator == frozenset({2, 3})
        assert_genuine_failure(g, 3, res)

    @given(chordal_graphs(1, 9))
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce(self, g):
        kappa = bf_vertex_connectivity(g)
        for k in range(1, g.n + 1):
            res = vertex_connectivity_at_least(g, k)
            assert res.connected == (kappa >= k)
            if not res:
                assert_genuine_failure(g, k, res)

    @given(chordal_graphs(2, 80), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_matches_flow(self, g, k):
        res = vertex_connectivity_at_least(g, k)
        if not g.is_complete():
            assert res.connected == _flow_connectivity(g, k).connected
        if not res:
            assert_genuine_failure(g, k, res)

    @given(chordal_graphs(2, 12), st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_reported_separator_is_minimal(self, g, k):
        res = vertex_connectivity_at_least(g, k)
        if res or res.witness is None:
            return
        sep = res.witness.separator
        if not sep:
            assert not bf_is_connected(g)
            return
        assert sep in enumerate_minimal_separators(g)


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
