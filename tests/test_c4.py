"""Induced four-cycle catalog and the cycle/vertex incidence structure."""

from __future__ import annotations

import hashlib
import random
from itertools import product

import pytest

from hypothesis import given, settings

from glpart import (
    Graph,
    enumerate_induced_c4,
    generate_almost_chordal,
)

from bruteforce import (
    all_pairs_induced_c4,
    bf_induced_c4_sets,
    build_c4_incidence,
    cycle_edges,
    cycles_of,
    random_gnp,
    shared_vertices,
    universal_to,
)
from test_graph import random_graph_strategy


CATALOG_SHA256 = "2a8116c38d45aaaa79af79c4ff86c11f3418333b220c6b7f4bfbba3d4cc137df"


def _wheel(spokes: int) -> Graph:
    """A hub joined to every vertex of a cycle on ``spokes`` vertices."""
    rim = [(i, (i + 1) % spokes) for i in range(spokes)]
    return Graph.from_edges(spokes + 1, rim + [(i, spokes) for i in range(spokes)])


def _complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _digest_corpus() -> list[Graph]:
    """Members up to n=1600 at k 2-5, C_3000 and 20 seeded G(n, p) graphs."""
    graphs = [
        generate_almost_chordal(n, k, n // 25, seed=n + k)
        for n, k in product((100, 200, 400, 800, 1600), (2, 3, 4, 5))
    ]
    graphs.append(Graph.cycle(3000))
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(10, 60)
        graphs.append(random_gnp(rng, n, rng.choice((0.1, 0.25, 0.5))))
    return graphs


class TestCatalog:
    def test_counts_on_named(self, c4, c5, house, domino, double_house, w4, k5):
        assert len(enumerate_induced_c4(c4).cycles) == 1
        assert len(enumerate_induced_c4(c5).cycles) == 0
        assert len(enumerate_induced_c4(house).cycles) == 1
        assert len(enumerate_induced_c4(domino).cycles) == 2
        assert len(enumerate_induced_c4(double_house).cycles) == 2
        assert len(enumerate_induced_c4(w4).cycles) == 1
        assert len(enumerate_induced_c4(k5).cycles) == 0

    def test_cycle_tuples_are_ring_ordered(self, domino):
        for cyc in enumerate_induced_c4(domino).cycles:
            ring = set(cycle_edges(cyc))
            assert len(ring) == 4
            g_edges = {e for e in domino.edges()}
            assert all(tuple(sorted(e)) in g_edges for e in ring)
            # the two diagonals are non-edges
            assert tuple(sorted((cyc[0], cyc[2]))) not in g_edges
            assert tuple(sorted((cyc[1], cyc[3]))) not in g_edges

    def test_canonical_starts_at_min(self, c4):
        (cyc,) = enumerate_induced_c4(c4).cycles
        assert cyc[0] == min(cyc)
        assert cyc[1] < cyc[3]

    def test_deterministic_order(self, domino):
        a = enumerate_induced_c4(domino).cycles
        b = enumerate_induced_c4(domino).cycles
        assert a == b == tuple(sorted(a))

    def test_membership_helpers(self, domino):
        cat = enumerate_induced_c4(domino)
        assert cycles_of(cat, 1) == (0, 1)
        assert cycles_of(cat, 0) == (0,)
        assert cat.vertex_membership()[2] == [0, 1]

    @given(random_graph_strategy(max_n=9))
    @settings(max_examples=150)
    def test_matches_bruteforce(self, g):
        got = {frozenset(c) for c in enumerate_induced_c4(g).cycles}
        assert got == bf_induced_c4_sets(g)
        assert len(got) == len(enumerate_induced_c4(g).cycles)

    def test_matches_all_pairs_reference(self):
        rng = random.Random(6)
        graphs = [Graph.cycle(3000)]
        graphs += [generate_almost_chordal(60, k, 5, seed=k) for k in (2, 3, 4)]
        graphs += [
            generate_almost_chordal(n, k, n // 25, seed=n + k)
            for n, k in product((400, 800), (2, 3, 4, 5))
        ]
        # heavy hubs and degree ties
        graphs += [_wheel(50), _complete_bipartite(2, 40), _complete_bipartite(6, 6)]
        for _ in range(40):
            n = rng.randint(5, 40)
            p = rng.choice((0.1, 0.25, 0.5))
            graphs.append(random_gnp(rng, n, p))
        for g in graphs:
            cycles = enumerate_induced_c4(g).cycles
            assert len(set(cycles)) == len(cycles)
            assert enumerate_induced_c4(g) == all_pairs_induced_c4(g)

    def test_pinned_digest(self):
        # SHA-256 of the catalogs of a fixed corpus, as the distance-two
        # pair scan that preceded the degree-ordered walk produced them
        h = hashlib.sha256()
        for g in _digest_corpus():
            h.update(repr(enumerate_induced_c4(g).cycles).encode())
            h.update(b"\n")
        assert h.hexdigest() == CATALOG_SHA256


class TestUniversalTo:
    def test_hub_of_wheel(self, w4):
        (cyc,) = enumerate_induced_c4(w4).cycles
        assert universal_to(w4, 4, cyc)

    def test_on_cycle_query_rejected(self, w4):
        (cyc,) = enumerate_induced_c4(w4).cycles
        with pytest.raises(ValueError):
            universal_to(w4, 0, cyc)

    def test_roof_is_not_universal(self, house):
        (cyc,) = enumerate_induced_c4(house).cycles
        assert not universal_to(house, 4, cyc)


class TestIncidence:
    def test_single_cycle(self, c4):
        cat = enumerate_induced_c4(c4)
        inc = build_c4_incidence(cat)
        assert inc.cycle_count == 1
        assert shared_vertices(cat) == ()
        assert inc.is_forest

    def test_domino_shares_two(self, domino):
        cat = enumerate_induced_c4(domino)
        inc = build_c4_incidence(cat)
        assert inc.cycle_count == 2
        assert shared_vertices(cat) == (1, 2)
        # one edge per (cycle, shared vertex) incidence: 2 + 2 = 4 edges
        # on 2 + 2 nodes closes a cycle, so this is not a forest
        assert not inc.is_forest

    def test_double_house_shares_one(self, double_house):
        cat = enumerate_induced_c4(double_house)
        inc = build_c4_incidence(cat)
        assert inc.cycle_count == 2
        assert shared_vertices(cat) == (0,)
        assert inc.is_forest

    def test_generated_members_are_forests(self):
        for seed in range(4):
            g = generate_almost_chordal(24, 3, 3, seed=seed)
            inc = build_c4_incidence(enumerate_induced_c4(g))
            assert inc.cycle_count == 3
            assert inc.is_forest
