"""Core graph container, merge maps, contraction, weighted wrapper.

Contraction is checked against the one-edge reference in ``bruteforce``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from glpart import ChordalityWitness, Graph, WeightedGraph, generate_almost_chordal
from glpart.c4 import enumerate_induced_c4
from glpart.chordal import McsSearch
from glpart.graph import (
    components_within,
    contract_matching,
    induced_subgraph,
    merged_weights,
)

from bruteforce import (
    bf_is_connected,
    complete_graph,
    compose,
    compute_peo,
    contract_edge,
    cycle_graph,
    edges,
    identity_merge_map,
    is_connected_set,
    iter_nonedges,
    path_graph,
)


def random_graph_strategy(max_n=9):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return Graph.from_edges(n, [p for p, keep in zip(pairs, mask) if keep])

    return build()


class TestConstruction:
    def test_from_edges_dedups_and_symmetrizes(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert edges(g) == [(0, 1)]
        assert 0 in g.adj[1] and 1 in g.adj[0]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError) as err:
            Graph.from_edges(-1, [])
        assert str(err.value) == "vertex count must be non-negative"

    def test_complete(self):
        g = complete_graph(4)
        assert len(edges(g)) == 6
        assert all(len(g.adj[v]) == 3 for v in range(4))

    def test_cycle_and_path(self):
        assert len(edges(cycle_graph(5))) == 5
        assert len(edges(path_graph(5))) == 4

    def test_edges_sorted_u_lt_v(self):
        g = Graph.from_edges(4, [(3, 1), (2, 0)])
        assert edges(g) == [(0, 2), (1, 3)]

    def test_with_edges(self):
        g = path_graph(3).with_edges([(0, 2)])
        assert edges(g) == [(0, 1), (0, 2), (1, 2)]

    def test_hashable_and_equal(self):
        a = Graph.from_edges(3, [(0, 1)])
        b = Graph.from_edges(3, [(1, 0)])
        assert a == b and hash(a) == hash(b)


class TestConnectivityHelpers:
    def test_is_connected(self):
        split = Graph.from_edges(4, [(0, 1), (2, 3)])
        for g, want in ((path_graph(4), True), (split, False)):
            assert bf_is_connected(g) is want
            assert is_connected_set(g, g.vertices()) is want

    def test_is_connected_set_subset(self, house):
        assert is_connected_set(house, {0, 1, 2})
        assert not is_connected_set(house, {0, 2})
        assert is_connected_set(house, {4})

    def test_is_connected_set_empty_raises(self, house):
        with pytest.raises(ValueError):
            is_connected_set(house, set())

    def test_components_within(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        comps = components_within(g, {0, 1, 2, 4, 5})
        assert sorted(sorted(c) for c in comps) == [[0, 1], [2], [4, 5]]

    @given(random_graph_strategy(), st.data())
    def test_is_connected_set_matches_bruteforce(self, g, data):
        verts = data.draw(
            st.sets(st.integers(min_value=0, max_value=g.n - 1), min_size=1)
        )
        assert is_connected_set(g, verts) == bf_is_connected(g, verts)

    @given(random_graph_strategy(), st.data())
    def test_is_clique_matches_definition(self, g, data):
        verts = data.draw(st.lists(
            st.integers(min_value=0, max_value=g.n - 1), unique=True))
        want = all(b in g.adj[a] for a in verts for b in verts if a != b)
        assert g.is_clique(verts) == want


class TestInducedSubgraph:
    def test_idmap_and_edges(self, house):
        sub, idmap = induced_subgraph(house, [2, 3, 4])
        assert idmap == (2, 3, 4)
        assert sub.n == 3
        assert len(edges(sub)) == 3  # triangle 2-3-4

    def test_preserves_nonedges(self, c4):
        sub, idmap = induced_subgraph(c4, [0, 2])
        assert edges(sub) == []

    @pytest.mark.parametrize("bad", [4, -1])
    def test_rejects_out_of_range_id(self, c4, bad):
        with pytest.raises(ValueError) as err:
            induced_subgraph(c4, [0, bad])
        assert str(err.value) == f"vertex {bad} out of range"


class TestContractEdge:
    def test_merged_vertex_takes_min_slot(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        h, mm = contract_edge(g, 1, 2)
        assert h.n == 3
        # vertex 1 now carries {1, 2} and sees both old neighbors
        assert mm.expand([1]) == frozenset({1, 2})
        assert edges(h) == [(0, 1), (1, 2)]

    def test_requires_edge(self, c4):
        with pytest.raises(ValueError):
            contract_edge(c4, 0, 2)

    def test_no_self_loop_or_multi_edge(self, k4):
        h, _ = contract_edge(k4, 0, 1)
        assert h == complete_graph(3)

    def test_merge_map_compose(self):
        g = cycle_graph(5)
        g1, m1 = contract_edge(g, 0, 1)
        g2, m2 = contract_edge(g1, 0, 1)
        total = compose(m2, m1)
        assert total.expand([0]) == frozenset({0, 1, 2})
        covered = set()
        for v in range(g2.n):
            covered |= total.expand([v])
        assert covered == set(range(5))

    def test_identity_merge_map(self):
        mm = identity_merge_map(4)
        assert all(mm.expand([v]) == frozenset({v}) for v in range(4))


class TestContractMatching:
    @given(random_graph_strategy(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_sequential_reference(self, g, data):
        shuffled = data.draw(st.permutations(edges(g)))
        keep = data.draw(
            st.lists(st.booleans(), min_size=len(shuffled), max_size=len(shuffled))
        )
        matching, used = [], set()
        for (u, v), take in zip(shuffled, keep):
            if take and u not in used and v not in used:
                matching.append((u, v) if data.draw(st.booleans()) else (v, u))
                used.update((u, v))

        ref, total = g, identity_merge_map(g.n)
        for u, v in matching:
            cur_of = {old: new for new, grp in enumerate(total.groups) for old in grp}
            ref, step = contract_edge(ref, cur_of[u], cur_of[v])
            total = compose(step, total)
        assert contract_matching(g, matching) == (ref, total)

    @given(random_graph_strategy(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_merged_weights_sum_each_group(self, g, data):
        weights = data.draw(st.lists(st.integers(1, 9), min_size=g.n, max_size=g.n))
        matching, used = [], set()
        for u, v in data.draw(st.permutations(edges(g))):
            if u not in used and v not in used and data.draw(st.booleans()):
                matching.append((u, v) if data.draw(st.booleans()) else (v, u))
                used.update((u, v))
        groups = contract_matching(g, matching)[1].groups
        assert merged_weights(weights, matching) == tuple(
            sum(weights[v] for v in grp) for grp in groups)

    def test_empty_matching_is_identity(self, house):
        assert contract_matching(house, []) == (house, identity_merge_map(house.n))

    def test_rejects_non_edge(self, c4):
        with pytest.raises(ValueError):
            contract_matching(c4, [(0, 2)])
        with pytest.raises(ValueError):
            contract_matching(c4, [(1, 1)])

    def test_rejects_overlapping_pairs(self, p4):
        with pytest.raises(ValueError):
            contract_matching(p4, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            contract_matching(p4, [(0, 1), (0, 1)])


class TestCertificateMemo:
    def test_memo_is_invisible(self):
        g = generate_almost_chordal(40, 3, 3, seed=2)
        shown = repr(g)
        peo = compute_peo(g)
        catalog = enumerate_induced_c4(g)
        fresh = Graph(g.adj)
        assert g == fresh and hash(g) == hash(fresh)
        assert {fresh: 1}[g] == 1
        assert repr(g) == shown == repr(fresh)
        assert compute_peo(g) is peo
        assert enumerate_induced_c4(g) is catalog
        assert len(catalog) == 3

    def test_derived_graphs_start_empty(self):
        g = path_graph(4)
        assert isinstance(compute_peo(g), McsSearch)
        assert len(enumerate_induced_c4(g)) == 0
        closed = g.with_edges([(0, 3)])
        sub, _ = induced_subgraph(g, [0, 1, 2])
        merged, _ = contract_matching(g, [(1, 2)])
        for h in (closed, sub, merged):
            assert h._memo == {}
        # the chord closes a 4-cycle: the new graph's certificates see it
        assert enumerate_induced_c4(closed) == ((0, 1, 2, 3),)
        assert isinstance(compute_peo(closed), ChordalityWitness)
        assert len(enumerate_induced_c4(g)) == 0


class TestWeightedGraph:
    def test_unit(self, c4):
        wg = WeightedGraph.unit(c4)
        assert wg.is_unit() and wg.w_max == 1 and wg.total_weight() == 4
        assert not WeightedGraph(c4, (1, 1, 2, 1)).is_unit()
        assert WeightedGraph.unit(Graph.from_edges(0, [])).is_unit()

    def test_weight_of(self, c4):
        wg = WeightedGraph(c4, (2, 3, 5, 7))
        assert wg.weight_of({1, 3}) == 10
        assert wg.w_max == 7

    def test_rejects_nonpositive(self, c4):
        for weights in ((1, 0, 1, 1), (1, 1, -3, 1)):
            with pytest.raises(ValueError, match="must be positive integers"):
                WeightedGraph(c4, weights)

    def test_rejects_length_mismatch(self, c4):
        with pytest.raises(ValueError):
            WeightedGraph(c4, (1, 1, 1))


def test_iter_nonedges(c4):
    assert list(iter_nonedges(c4)) == [(0, 2), (1, 3)]
