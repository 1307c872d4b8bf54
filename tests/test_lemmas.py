"""Structural facts about class members that the pipeline relies on.

Every check runs against generated members (small n so the brute-force
cross-checks stay fast) plus a handful of named graphs.  A failure here
means the chord-and-contract preprocessing rests on a false premise.
"""

from __future__ import annotations

import itertools
import random

import pytest

from glpart import (
    Graph,
    enumerate_induced_c4,
    generate_almost_chordal,
    induced_subgraph,
    is_hh_i42_free,
    mcs_search,
)
from glpart.connectivity import clique_decomposition

from bruteforce import (
    DOUBLE_HOUSE_EDGES,
    all_pairs_induced_c4,
    bf_contains_induced,
    bf_vertex_connectivity,
    build_c4_incidence,
    enumerate_minimal_separators,
    random_gnp,
    shared_vertex_member,
    universal_to,
)


def member_pool():
    """Generated members with n <= 14, spanning k = 2..5."""

    specs = [
        (9, 2, 1, 0),
        (13, 2, 2, 1),
        (14, 2, 2, 2),
        (10, 3, 1, 3),
        (14, 3, 2, 4),
        (12, 4, 1, 5),
        (14, 4, 2, 6),
        (10, 5, 1, 7),
        (11, 5, 1, 8),
        (12, 5, 1, 9),
        (13, 5, 1, 10),
        (14, 5, 2, 11),
        (14, 5, 2, 12),
    ]
    pool = []
    for n, k, cycles, seed in specs:
        pool.append((generate_almost_chordal(n, k, cycles, seed=seed), k))
    return pool


def shared_pool():
    """Members with n <= 14 and k = 2, 3 whose rings share a vertex."""

    specs = [
        (7, 2, 1, 1, 0),
        (7, 2, 1, 2, 1),
        (11, 2, 2, 1, 2),
        (8, 3, 1, 1, 3),
        (8, 3, 1, 2, 4),
    ]
    return [
        (shared_vertex_member(n, k, cycles, extra, seed), k)
        for n, k, cycles, extra, seed in specs
    ]


SHARED = shared_pool()
POOL = member_pool() + SHARED
GRAPHS = [g for g, _ in POOL]


def _pool_id(g):
    shared = "shared-" if any(g is s for s, _ in SHARED) else ""
    return f"{shared}n{g.n}m{len(g.edges())}"


def test_pool_covers_high_k():
    assert sum(1 for _, k in POOL if k >= 5) >= 5


@pytest.mark.parametrize("g, k", SHARED, ids=[_pool_id(g) for g, _ in SHARED])
def test_shared_pool_rings_share_a_vertex(g, k):
    cat = all_pairs_induced_c4(g)
    assert any(set(a) & set(b) for a, b in itertools.combinations(cat, 2))
    assert enumerate_induced_c4(g) == cat
    assert bf_vertex_connectivity(g) == k


@pytest.mark.parametrize("g", GRAPHS, ids=_pool_id)
class TestPerMember:
    def test_two_neighbors_imply_universal(self, g):
        # off-cycle vertex adjacent to 2+ cycle vertices sees all four
        for cyc in enumerate_induced_c4(g):
            on_cycle = set(cyc)
            for v in range(g.n):
                if v in on_cycle:
                    continue
                hits = sum(1 for u in cyc if u in g.adj[v])
                if hits >= 2:
                    assert universal_to(g, v, cyc), (v, cyc)

    def test_universal_set_is_clique(self, g):
        for cyc in enumerate_induced_c4(g):
            univ = [
                v
                for v in range(g.n)
                if v not in cyc and universal_to(g, v, cyc)
            ]
            for a, b in itertools.combinations(univ, 2):
                assert b in g.adj[a], (a, b, cyc)

    def test_chord_keeps_class_and_kills_one_cycle(self, g):
        before = len(enumerate_induced_c4(g))
        if before == 0:
            pytest.skip("chordal member, nothing to chord")
        for cyc in enumerate_induced_c4(g):
            for a, b in ((cyc[0], cyc[2]), (cyc[1], cyc[3])):
                g2 = g.with_edges([(a, b)])
                assert is_hh_i42_free(g2).ok, (a, b, cyc)
                after = len(enumerate_induced_c4(g2))
                assert after == before - 1, (a, b, cyc)

    def test_incidence_structure_is_forest(self, g):
        cat = enumerate_induced_c4(g)
        assert build_c4_incidence(cat).is_forest

    def test_no_double_house_embedding(self, g):
        pattern = Graph.from_edges(7, DOUBLE_HOUSE_EDGES)
        assert not bf_contains_induced(g, pattern)


def test_high_k_separators_avoid_cycle_triples():
    """For k >= 5 no minimal separator holds 3 vertices of one C4."""

    checked = 0
    for g, k in POOL:
        if k < 5:
            continue
        cycles = enumerate_induced_c4(g)
        if not cycles:
            continue
        for sep in enumerate_minimal_separators(g):
            for cyc in cycles:
                assert len(sep & set(cyc)) < 3, (sorted(sep), cyc)
        checked += 1
    assert checked >= 5


def test_named_graphs_outside_pool():
    # a lone C4 with two universal neighbors that are themselves adjacent
    g = Graph.from_edges(
        6,
        [(0, 1), (1, 2), (2, 3), (3, 0)]
        + [(4, i) for i in range(4)]
        + [(5, i) for i in range(4)]
        + [(4, 5)],
    )
    assert is_hh_i42_free(g).ok
    cat = enumerate_induced_c4(g)
    assert len(cat) == 1
    cyc = cat[0]
    assert universal_to(g, 4, cyc) and universal_to(g, 5, cyc)
    # chording it leaves a chordal graph
    g2 = g.with_edges([(0, 2)])
    assert len(enumerate_induced_c4(g2)) == 0


def test_two_neighbor_lemma_fails_outside_class():
    """Sanity: the lemma is a class property, not a tautology."""

    # house: vertex 4 sees 2 and 3 on the C4 but not 0 or 1
    house = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (3, 4)])
    assert not is_hh_i42_free(house).ok
    cyc = enumerate_induced_c4(house)[0]
    off = next(v for v in range(5) if v not in cyc)
    hits = sum(1 for u in cyc if u in house.adj[off])
    assert hits == 2 and not universal_to(house, off, cyc)


def test_random_members_obey_all_lemmas():
    """Extra randomized sweep beyond the fixed pool."""

    rng = random.Random(77)
    for trial in range(30):
        k = rng.choice([2, 2, 3, 3, 4, 5])
        cycles = rng.randint(1, 2)
        n = rng.randint(k + 1 + 4 * cycles, 14)
        g = generate_almost_chordal(n, k, cycles, seed=1000 + trial)
        cat = enumerate_induced_c4(g)
        assert build_c4_incidence(cat).is_forest
        for cyc in cat:
            univ = [
                v for v in range(g.n) if v not in cyc and universal_to(g, v, cyc)
            ]
            for a, b in itertools.combinations(univ, 2):
                assert b in g.adj[a]
            for v in range(g.n):
                if v in cyc:
                    continue
                if sum(1 for u in cyc if u in g.adj[v]) >= 2:
                    assert universal_to(g, v, cyc)


def _generated_members():
    rng = random.Random(1701)
    for k in (2, 3, 4):
        for seed in range(30):
            cycles = rng.randint(1, 8)
            n = rng.randint(k + 1 + 4 * cycles, k + 31 + 4 * cycles)
            yield generate_almost_chordal(n, k, cycles, seed)


def _random_members():
    rng = random.Random(1702)
    for _ in range(6000):
        g = random_gnp(rng, rng.randint(4, 10), rng.choice((0.3, 0.5, 0.7)))
        if is_hh_i42_free(g):
            yield g


@pytest.mark.parametrize("family, least", [
    (_generated_members, 300),
    (_random_members, 150),
], ids=["generated", "gnp"])
def test_decomposition_pieces_are_ring_plus_q(family, least):
    """Every non-complete atom of a non-chordal member is ring + Q.

    Proof for a true atom A, one with no clique separator. A is not a
    clique, so it is not chordal (a chordal graph other than a clique has
    a clique separator), and as a member it has no hole: it holds an
    induced 4-cycle, the ring. A vertex off the ring sees 0, 1 or 4
    ring vertices, since two adjacent ones make a house and two opposite
    ones or three make a 4-cycle that shares two or more ring vertices.
    The vertices that see all four form a clique Q, or two of them close
    a 4-cycle with two opposite ring vertices. Any other component of
    A - ring - Q has neighbours that meet the ring in at most one vertex:
    a shortest path through it between two ring vertices closes a hole or
    a second 4-cycle sharing two ring vertices. So those neighbours lie
    in Q plus one ring vertex, a clique that separates, and no such
    component exists. Then κ(A) = |Q| + 2, the connectivity of C4 joined
    to K_|Q|.

    ``clique_decomposition`` cuts along its elimination game, which need
    not yield true atoms; this checks every piece it hands out anyway,
    through the shape test it records with each piece.
    """
    checked = 0
    for g in family():
        if mcs_search(g).witness is None:
            continue
        for atom in clique_decomposition(g)[0]:
            sub = induced_subgraph(g, atom.ids)[0]
            assert atom.ring is not None, (g, sub)
            q = sub.n - 4
            if sub.n <= 10:
                assert bf_vertex_connectivity(sub) == q + 2, (g, sub)
            checked += 1
    assert checked >= least
