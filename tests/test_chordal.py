"""Elimination orders and chordality certification."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from glpart import (
    ChordalityWitness,
    Graph,
    generate_almost_chordal,
    generate_ktree,
    mcs_search,
)

from glpart.chordal import McsSearch, _build_mcs_order, _witness_at, mcs_order, peo_violation

from bruteforce import (
    bf_heap_mcs_search,
    bf_is_chordal,
    bf_mcs_order,
    bf_witness_at,
    compute_peo,
    cycle_graph,
    is_chordal,
    is_peo,
    path_graph,
    planted,
    positions,
    random_chordal,
    random_gnp,
    shared_vertex_member,
)
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
            search = compute_peo(g)
            assert isinstance(search, McsSearch)
            assert is_peo(g, search.order)

    def test_sigma_is_one_based_position(self, p4):
        search = compute_peo(p4)
        assert isinstance(search, McsSearch)
        assert sorted(search.sigma) == list(range(1, p4.n + 1))
        for pos, v in enumerate(search.order):
            assert search.sigma[v] == pos + 1

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

    @pytest.mark.parametrize("order", [
        (0, 1, 1, 3), (1, 2, 3), (0, 1, 2), (0, 1, 2, 3, 4), (0, 1, 2, 4),
        (-1, 0, 1, 2),
    ], ids=["repeated", "missing", "short", "long", "out-of-range", "negative"])
    def test_peo_violation_rejects_non_permutations(self, p4, order):
        with pytest.raises(ValueError) as err:
            peo_violation(p4, order)
        assert str(err.value) == "order must be a permutation of 0..n-1"

    def test_peo_violation_on_empty_graph(self):
        assert peo_violation(Graph.from_edges(0, []), ()) is None

    def test_search_rejects_empty_graph(self):
        with pytest.raises(ValueError) as err:
            mcs_search(Graph.from_edges(0, []))
        assert str(err.value) == "graph must be non-empty"

    def test_bad_order_on_chordal_graph_detected(self, p4):
        # eliminating a path from the middle first breaks the property
        assert not is_peo(p4, (1, 0, 2, 3))


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
            assert is_peo(g, res.order)


def _gnp_graphs(rng):
    for density in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0):
        for _ in range(25):
            yield random_gnp(rng, rng.randint(1, 30), density)


def _chordal_graphs(rng):
    for _ in range(60):
        yield random_chordal(rng, rng.randint(1, 30))


def _ktrees(rng):
    for k in range(2, 6):
        for seed in range(10):
            yield generate_ktree(rng.randint(k + 1, 40), k, seed)


def _members(rng):
    # each member, then the member with each planted defect
    for k in (2, 3, 4):
        for seed in range(4):
            member = generate_almost_chordal(k + 13 + rng.randrange(8), k, 3, seed)
            yield member
            for kind in ("house", "c4-overlap", "separator", "hole"):
                yield planted(member, k, kind)


@st.composite
def _edge_lists(draw):
    """A graph on n <= 24 vertices from a drawn edge list; the vertices no
    edge touches stay isolated."""
    n = draw(st.integers(min_value=1, max_value=24))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    return Graph.from_edges(n, [(u, v) for u, v in pairs if u != v])


class TestSearchAgainstReference:
    """The one-pass search against a rescanning search and the
    order-agnostic checker: same order, positions, later lists and
    witness."""

    @pytest.mark.parametrize("family,chordal", [
        (_gnp_graphs, {True, False}),
        (_chordal_graphs, {True}),
        (_ktrees, {True}),
        (_members, {False}),
    ], ids=["gnp", "chordal", "ktree", "member"])
    def test_matches_rescanning_search(self, family, chordal):
        verdicts = set()
        for g in family(random.Random(1501)):
            order, later = bf_mcs_order(g)
            assert mcs_order(g) == order, g
            search = mcs_search(g)
            assert (search.order, search.sigma) == (order, positions(order)), g
            assert search.later == later, g
            assert search.witness == peo_violation(g, order), g
            verdicts.add(search.witness is None)
        assert verdicts == chordal

    @given(_edge_lists())
    @settings(max_examples=300)
    def test_drawn_graphs_match_rescanning_search(self, g):
        order, later = bf_mcs_order(g)
        search = mcs_search(g)
        assert search.order == order
        assert search.later == later
        assert search.witness == peo_violation(g, order)


def _relabeled(g, rng):
    perm = list(g.vertices())
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _union(*graphs):
    edges, base = [], 0
    for h in graphs:
        edges += [(u + base, v + base) for u, v in h.edges()]
        base += h.n
    return Graph.from_edges(base, edges)


def _complete_bipartite(a, b, small_first):
    """K_{a,b} with the a side on the lowest ids, or on the highest."""
    side = range(a) if small_first else range(b, a + b)
    return Graph.from_edges(
        a + b, [(x, y) for x in side for y in range(a + b) if y not in side]
    )


def _large_ktrees(rng):
    for k in range(2, 7):
        for n in (k + 1, 60, 500, 4000):
            yield generate_ktree(n, k, rng.randrange(1 << 30))


def _large_members(rng):
    for k in (2, 3, 4):
        for n in (40, 400):
            member = generate_almost_chordal(n, k, n // 25, rng.randrange(1 << 30))
            yield member
            for kind in ("house", "c4-overlap", "separator", "hole"):
                yield planted(member, k, kind)
        yield shared_vertex_member(60, k, 4, 2, rng.randrange(1 << 30))


def _sparse_gnp(rng):
    # at p = 0 every pick is a count-0 one
    for p in (0.0, 0.001, 0.01, 0.05, 0.2, 0.6):
        for n in (1, 2, 10, 60, 200):
            yield random_gnp(rng, n, p)


def _unions(rng):
    for _ in range(6):
        yield _union(
            generate_ktree(rng.randint(4, 300), 3, rng.randrange(1 << 30)),
            random_gnp(rng, 30, 0.03),
            path_graph(rng.randint(1, 50)),
            generate_almost_chordal(40, 2, 2, rng.randrange(1 << 30)),
            Graph.from_edges(rng.randint(1, 5), []),
        )


def _bipartite(rng):
    # one level holds almost every vertex
    for a in (1, 2, 3):
        for b in (1, 2, 10, 1500):
            for small_first in (True, False):
                yield _complete_bipartite(a, b, small_first)


def _paths_and_cycles(rng):
    for n in (1, 2, 3, 4, 5, 100, 3000):
        yield path_graph(n)
        yield _relabeled(path_graph(n), rng)
        if n >= 3:
            yield cycle_graph(n)
            yield _relabeled(cycle_graph(n), rng)


class TestSearchMatchesHeapSearch:
    """The per-count search against the one-heap search it replaced: the
    same order, positions, later lists and witness, on graphs up to
    n = 4,000."""

    @pytest.mark.parametrize("family,chordal", [
        (_large_ktrees, {True}),
        (_large_members, {False}),
        (_sparse_gnp, {True, False}),
        (_unions, {False}),
        (_bipartite, {True, False}),
        (_paths_and_cycles, {True, False}),
    ], ids=["ktree", "member", "gnp", "union", "bipartite", "path-cycle"])
    def test_same_search(self, family, chordal):
        verdicts = set()
        for g in family(random.Random(2501)):
            search = _build_mcs_order(g)
            assert search == bf_heap_mcs_search(g), g
            verdicts.add(search.witness is None)
        assert verdicts == chordal


class TestLaterLists:
    """Each vertex's search list is exactly its later neighbours, by
    descending position, so its parent, the earliest, comes last."""

    @pytest.mark.parametrize("family", [
        _gnp_graphs, _chordal_graphs, _ktrees, _members, _large_ktrees,
        _large_members, _sparse_gnp, _unions, _bipartite, _paths_and_cycles,
    ], ids=["gnp", "chordal", "ktree", "member", "large-ktree",
            "large-member", "sparse-gnp", "union", "bipartite", "path-cycle"])
    def test_lists_are_later_neighbours_parent_last(self, family):
        for g in family(random.Random(3201)):
            search = mcs_search(g)
            sigma = search.sigma
            for v in g.vertices():
                later = [u for u in g.adj[v] if sigma[u] > sigma[v]]
                later.sort(key=sigma.__getitem__, reverse=True)
                assert search.later[v] == later, (g, v)


def _rebuilt(g):
    """g with every neighbour set built again in descending id order."""
    return Graph(tuple(frozenset(sorted(s, reverse=True)) for s in g.adj))


class TestWitnessRule:
    """The witness names the earliest later neighbour and the smallest-id
    later neighbour that it misses, so it reads nothing off the order in
    which a neighbour set was built."""

    def test_matches_smallest_missed_later_neighbour(self):
        rng = random.Random(3101)
        seen = 0
        for g in _gnp_graphs(rng):
            sigmas = [mcs_search(g).sigma]
            for _ in range(3):
                order = list(g.vertices())
                rng.shuffle(order)
                sigmas.append(positions(order))
            for sigma in sigmas:
                for v in g.vertices():
                    want = bf_witness_at(g, sigma, v)
                    assert _witness_at(g, sigma, v) == want, (g, sigma, v)
                    seen += want is not None
        assert seen > 1000

    @pytest.mark.parametrize("family", [_gnp_graphs, _members, _large_members],
                             ids=["gnp", "member", "large-member"])
    def test_search_ignores_set_order(self, family):
        differ = 0
        for g in family(random.Random(3102)):
            h = _rebuilt(g)
            differ += any(list(a) != list(b) for a, b in zip(g.adj, h.adj))
            search = _build_mcs_order(g)
            assert _build_mcs_order(h) == search, g
            if search.witness is not None:
                v = search.violators[0]
                assert search.witness == bf_witness_at(g, search.sigma, v)
        assert differ > 0
