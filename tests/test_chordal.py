"""Elimination orders and chordality certification."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from glpart import (
    ChordalityWitness,
    Graph,
    Peo,
    compute_peo,
    generate_ktree,
    mcs_order,
    peo_violation,
)

from bruteforce import bf_is_chordal, is_chordal, is_peo
from test_graph import random_graph_strategy


class TestMcsOrder:
    def test_is_a_permutation(self, house):
        order = mcs_order(house)
        assert sorted(order) == list(range(house.n))

    def test_deterministic(self, domino):
        assert mcs_order(domino) == mcs_order(domino)

    def test_single_vertex(self):
        assert mcs_order(Graph.from_edges(1, [])) == (0,)


class TestPeo:
    def test_known_chordal(self, k4, p4):
        for g in (k4, p4):
            peo = compute_peo(g)
            assert isinstance(peo, Peo)
            assert is_peo(g, peo)

    def test_sigma_is_one_based_position(self, p4):
        peo = compute_peo(p4)
        assert isinstance(peo, Peo)
        assert sorted(peo.sigma) == list(range(1, p4.n + 1))
        for pos, v in enumerate(peo.order):
            assert peo.sigma[v] == pos + 1

    def test_witness_on_c4(self, c4):
        wit = compute_peo(c4)
        assert isinstance(wit, ChordalityWitness)
        u, v = wit.nonadjacent
        assert v not in c4.adj[u]

    def test_peo_violation_reports_nonedge(self, c5):
        wit = peo_violation(c5, mcs_order(c5))
        assert wit is not None
        u, v = wit.nonadjacent
        assert v not in c5.adj[u]

    def test_peo_violation_none_on_chordal(self, k4):
        assert peo_violation(k4, mcs_order(k4)) is None

    def test_bad_order_on_chordal_graph_detected(self, p4):
        # eliminating a path from the middle first breaks the property
        assert not is_peo(p4, Peo(order=(1, 0, 2, 3), sigma=(2, 1, 3, 4)))


class TestIsChordal:
    def test_named(self, c4, c5, house, domino, double_house, w4, w5, k4, k5, p4):
        expected = {
            "c4": False, "c5": False, "house": False, "domino": False,
            "double_house": False, "w4": False, "w5": False,
            "k4": True, "k5": True, "p4": True,
        }
        graphs = {
            "c4": c4, "c5": c5, "house": house, "domino": domino,
            "double_house": double_house, "w4": w4, "w5": w5,
            "k4": k4, "k5": k5, "p4": p4,
        }
        for name, g in graphs.items():
            assert is_chordal(g) == expected[name], name

    @given(random_graph_strategy(max_n=9))
    @settings(max_examples=150)
    def test_matches_bruteforce(self, g):
        assert is_chordal(g) == bf_is_chordal(g)

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60)
    def test_ktrees_are_chordal(self, k, extra, seed):
        g = generate_ktree(k + 1 + extra, k, seed)
        assert is_chordal(g)

    @given(random_graph_strategy(max_n=9))
    @settings(max_examples=150)
    def test_witness_is_genuine(self, g):
        res = compute_peo(g)
        if isinstance(res, ChordalityWitness):
            u, v = res.nonadjacent
            assert v not in g.adj[u]
            assert not bf_is_chordal(g)
        else:
            assert is_peo(g, res)
