"""Vertex connectivity decisions and minimal separator enumeration."""

from __future__ import annotations

import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from glpart import (
    CapError,
    Graph,
    generate_almost_chordal,
    vertex_connectivity_at_least,
)
from glpart.c4 import enumerate_induced_c4
from glpart.chordal import mcs_order, mcs_search
from glpart.connectivity import (
    Atom,
    _flow_connectivity,
    _kappa_up_to_2,
    _split_flow_mincut,
    _violator_fill,
    clique_decomposition,
)
from glpart.graph import components_within, induced_subgraph

from bruteforce import (
    _separates,
    bf_clique_atoms,
    bf_clique_atoms_every_set,
    bf_elimination_game,
    bf_flow_connectivity,
    bf_is_connected,
    bf_minimal_separators,
    bf_ring_plus_q,
    bf_split_flow_mincut,
    bf_split_network,
    bf_vertex_connectivity,
    cycle_graph,
    edges,
    enumerate_minimal_separators,
    is_chordal,
    path_graph,
    planted,
    random_chordal,
    random_gnp,
    shared_vertex_member,
    without_edges,
)
from test_graph import random_graph_strategy


def pieces(g: Graph) -> tuple[list[tuple[int, ...]], int]:
    """``clique_decomposition``'s atoms as vertex ids, and its smallest cut."""
    atoms, cut = clique_decomposition(g)
    return [a.ids for a in atoms], cut


def reference_pieces(g: Graph) -> tuple[list[tuple[int, ...]], int]:
    """The non-complete atoms of the every-set reference, ascending ids in
    cut order as ``clique_decomposition`` hands them out, and its smallest
    cut."""
    full, smallest = bf_clique_atoms_every_set(g)
    return [tuple(sorted(a)) for a, clique in full if not clique], smallest


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
        assert res.witness.separator == ()

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

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError) as err:
            vertex_connectivity_at_least(Graph.from_edges(0, []), 1)
        assert str(err.value) == "graph must be non-empty"

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
        assert res.witness.separator == (2, 3)
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
        assert frozenset(sep) in enumerate_minimal_separators(g)


class TestCliqueSeparatorMethod:
    """Non-chordal inputs: the cut-vertex search (k <= 2) and the clique
    separator decomposition (k >= 3) only ever accept, so every verdict,
    witness and reason equals the flow method's."""

    @staticmethod
    def assert_matches_flow(g: Graph, k: int) -> list[bool]:
        verdicts = []
        for kk in range(max(k - 1, 1), k + 2):
            res = vertex_connectivity_at_least(g, kk)
            ref = _flow_connectivity(g, kk)
            if is_chordal(g):
                assert res.connected == ref.connected
            else:
                assert res == ref, (kk, res, ref)
            verdicts.append(res.connected)
        return verdicts

    def test_members_and_members_without_edges(self):
        rng = random.Random(11)
        verdicts = []
        for seed in range(12):
            k = 2 + seed % 3
            member = generate_almost_chordal(rng.randint(30, 90), k, 4, seed)
            verdicts += self.assert_matches_flow(member, k)
            for _ in range(3):
                g = without_edges(member, rng, rng.randint(1, 4))
                verdicts += self.assert_matches_flow(g, k)
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("kind", ["house", "c4-overlap", "hole", "separator"])
    def test_members_with_planted_defect(self, kind):
        for k in (2, 3, 4):
            member = generate_almost_chordal(50, k, 3, seed=k)
            self.assert_matches_flow(planted(member, k, kind), k)

    def test_random_gnp(self):
        rng = random.Random(12)
        verdicts = []
        for _ in range(60):
            g = random_gnp(rng, rng.randint(5, 30), rng.choice((0.15, 0.3, 0.5, 0.7)))
            if not g.is_complete():
                verdicts += self.assert_matches_flow(g, rng.randint(1, 5))
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("n", [4, 5, 9, 40, 301])
    def test_cycles_and_paths(self, n):
        for g, kappa in ((cycle_graph(n), 2), (path_graph(n), 1)):
            assert _kappa_up_to_2(g) == kappa
            self.assert_matches_flow(g, 2)

    @given(random_graph_strategy(max_n=8))
    @settings(max_examples=100, deadline=None)
    def test_kappa_up_to_2_matches_bruteforce(self, g):
        if g.n >= 3:
            assert _kappa_up_to_2(g) == min(bf_vertex_connectivity(g), 2)

    def test_atom_flow_rejects_what_separators_miss(self):
        # the ring (p, q, r, s) gets fill (p, r); with p cut off its anchor
        # clique, {q, s} separates p, but the fill crosses that separator
        # and every clique separator still has k vertices
        k = 3
        member = generate_almost_chordal(30, k, 1, seed=1)
        p, q, r, s = enumerate_induced_c4(member)[0]
        g = Graph.from_edges(member.n, [
            e for e in edges(member) if p not in e or set(e) & {q, s}
        ])
        res = vertex_connectivity_at_least(g, k)
        assert not res and res.witness.separator == tuple(sorted((q, s)))
        self.assert_matches_flow(g, k)

    def test_members_accepted_without_whole_graph_flow(self, flow_sizes):
        # every non-complete atom of a member is ring + Q, whose
        # connectivity is its size less two, so no flow runs at all
        for k in (3, 4):
            member = generate_almost_chordal(120, k, 6, seed=k)
            assert vertex_connectivity_at_least(member, k)
            assert flow_sizes == []

    def test_hole_plant_accepted_inside_its_atoms(self, flow_sizes):
        # a C5 joined to the k-clique 0..k-1 makes g no class member, yet
        # the elimination fill still cuts it into atoms of k + 5 vertices
        # at most
        for k in (3, 4):
            g = planted(generate_almost_chordal(120, k, 6, seed=k), k, "hole")
            assert vertex_connectivity_at_least(g, k)
            assert flow_sizes and max(flow_sizes) <= k + 5
            flow_sizes.clear()

    def test_fill_cap_declines_to_flow(self, petersen):
        rng = random.Random(14)
        graphs = [petersen]
        graphs += [random_gnp(rng, n, 6 / n) for n in (30, 60, 100, 200)]
        for g in graphs:
            assert not is_chordal(g)
            assert _violator_fill(g) is None
            for k in (3, 4):
                assert vertex_connectivity_at_least(g, k) == _flow_connectivity(g, k)

    def test_atoms_are_clique_separator_atoms(self):
        # H need not be minimal, so the atoms may be coarser than the
        # reference's, but each is still cut off along cliques of g
        rng = random.Random(13)
        graphs = [random_gnp(rng, rng.randint(4, 9), rng.choice((0.3, 0.5, 0.7)))
                  for _ in range(40)]
        graphs += [generate_almost_chordal(n, 2, 1, seed=n) for n in (7, 8, 9)]
        graphs.append(planted(generate_almost_chordal(7, 2, 1, seed=1), 2, "house"))
        split = 0
        for g in graphs:
            assert pieces(g) == reference_pieces(g)
            got = [frozenset(a) for a, _ in bf_clique_atoms_every_set(g)[0]]
            assert len(set(got)) == len(got)
            assert frozenset().union(*got) == frozenset(g.vertices())
            for ref in bf_clique_atoms(g):
                assert any(ref <= atom for atom in got)
            for atom in got:
                for comp in components_within(g, set(g.vertices()) - atom):
                    border = {u for v in comp for u in g.adj[v]} - comp
                    assert all(b in g.adj[a] for a in border for b in border - {a})
            split += len(got) > 1
        assert split >= 10

    def test_one_atom_without_a_clique_separator(self, c5):
        # in both, the first vertices' later neighbors in the elimination
        # game miss an edge of g, and every later clique of g leaves all
        # that remains on the vertex's side, so nothing is cut
        octahedron = Graph.from_edges(6, [
            (a, b) for a in range(6) for b in range(a + 1, 6) if b != a ^ 1
        ])
        assert vertex_connectivity_at_least(octahedron, 4)
        for g in (octahedron, c5):
            assert bf_clique_atoms_every_set(g) == ([(list(g.vertices()), False)], g.n)
            atoms, cut = clique_decomposition(g)
            assert (atoms, cut) == ([Atom(tuple(g.vertices()), None, g)], g.n)
            # its subgraph is a graph on g's own sets, with no memo of g's
            assert atoms[0].sub.adj is g.adj and atoms[0].sub is not g

    def test_declines_on_small_separator(self, flow_sizes):
        member = generate_almost_chordal(40, 3, 2, seed=5)
        assert clique_decomposition(member)[1] == 3
        assert vertex_connectivity_at_least(member, 3)
        assert flow_sizes == []
        assert not vertex_connectivity_at_least(member, 4)
        assert flow_sizes == [member.n]


class TestCliqueDecomposition:
    """``clique_decomposition`` hands out exactly the non-complete atoms of
    the every-set reference, each as its ascending vertex ids, and marks
    exactly the ring + Q ones."""

    @staticmethod
    def inputs():
        rng = random.Random(16)
        graphs = [random_gnp(rng, rng.randint(2, 11), p)
                  for p in (0.2, 0.35, 0.5, 0.65, 0.8) for _ in range(30)]
        for k in (2, 3, 4):
            for seed in range(3):
                member = generate_almost_chordal(k + 7, k, 1, seed=seed)
                graphs.append(member)
                graphs += [planted(member, k, kind)
                           for kind in ("hole", "house", "c4-overlap", "separator")]
        return graphs

    def test_pieces_are_the_non_complete_atoms(self):
        split = rings = 0
        for g in self.inputs():
            atoms, cut = clique_decomposition(g)
            full, smallest = bf_clique_atoms_every_set(g)
            assert cut == smallest
            assert all(clique == g.is_clique(a) for a, clique in full)
            for a in atoms:
                assert list(a.ids) == sorted(set(a.ids))
                sub = induced_subgraph(g, a.ids)[0]
                assert not sub.is_complete()
                ring = bf_ring_plus_q(sub)
                assert (a.ring is None) == (ring is None)
                if ring is not None:
                    assert {frozenset(d) for d in a.ring} == {
                        frozenset(a.ids[v] for v in d) for d in ring}
                    rings += 1
            if len(full) == 1:
                # g is its own only atom, holding every vertex
                assert [a.ids for a in atoms] == (
                    [] if full[0][1] else [tuple(g.vertices())])
                continue
            split += 1
            pieces = [frozenset(a.ids) for a in atoms]
            assert sorted(pieces, key=sorted) == sorted(
                (frozenset(a) for a, _ in full if not g.is_clique(a)), key=sorted)
            assert not any(p <= q for p, q in permutations(pieces, 2))
            # a redundant atom's cut still separates g
            assert bf_vertex_connectivity(g) <= cut
        assert split >= 50
        assert rings >= 20


class TestFilledVertexTest:
    """``clique_decomposition`` tests a later set for a clique only when it
    holds a filled vertex, cuts the other positions in bulk, and hands out
    the same non-complete atoms and smallest cut as the reference that
    tests every set and searches at every position."""

    def test_matches_every_set_reference(self):
        rng = random.Random(23)
        graphs = [generate_almost_chordal(n, k, n // 15, seed=n + k)
                  for n in (20, 45, 90) for k in (2, 3, 4)]
        graphs += [shared_vertex_member(n, k, cycles, extra, seed)
                   for n, k, cycles, extra, seed in (
                       (7, 2, 1, 2, 1), (11, 2, 2, 1, 2), (8, 3, 1, 2, 4),
                       (40, 3, 4, 3, 5), (60, 4, 5, 4, 6))]
        graphs += [random_gnp(rng, rng.randint(2, 14), p)
                   for p in (0.2, 0.35, 0.5, 0.65, 0.8) for _ in range(40)]
        split = 0
        for g in graphs:
            assert pieces(g) == reference_pieces(g)
            split += len(bf_clique_atoms_every_set(g)[0]) > 1
        assert split >= 60

    @staticmethod
    def returns_to_zero(g: Graph, atoms) -> int:
        """How often, along g's elimination order, the count of earlier
        vertices still alive falls from above 0 back to 0 at a cut."""
        later = bf_elimination_game(g, mcs_order(g))
        comp_size = {a[0]: len(a) - len(later[a[0]]) for a, _ in atoms[:-1]}
        alive = returns = 0
        for x in mcs_order(g):
            if x in comp_size:
                returns += alive > 0 and alive == comp_size[x] - 1
                alive -= comp_size[x] - 1
            else:
                alive += 1
        return returns

    def test_alive_count_switches_at_size(self):
        # the cut goes in bulk while no earlier vertex is alive, and one
        # position at a time while one is; members, shared-vertex members
        # and planted defects push the count up and back to 0, a cycle
        # keeps it up to the end, and a declined fill cuts nothing
        members = [(generate_almost_chordal(n, k, n // 25, seed=n + k), k)
                   for n in (200, 300, 400) for k in (2, 3, 4)]
        members += [(shared_vertex_member(n, k, n // 40, 4, n + k), k)
                    for n, k in ((200, 2), (300, 3), (400, 4))]
        graphs = [g for g, _ in members]
        graphs += [planted(g, k, kind) for g, k in members
                   for kind in ("house", "c4-overlap", "hole", "separator")]
        graphs += [cycle_graph(n) for n in range(5, 61)]
        declined = random_gnp(random.Random(14), 60, 0.1)
        assert _violator_fill(declined) is None
        graphs.append(declined)
        returns = []
        for g in graphs:
            assert pieces(g) == reference_pieces(g)
            full = bf_clique_atoms_every_set(g)[0]
            returns.append(self.returns_to_zero(g, full))
        assert min(returns[:60]) >= 8
        assert returns[60:] == [0] * 57


class TestEliminationFill:
    """The fill worked from the violators against the elimination game
    played out, declined exactly when the game adds more than m edges."""

    @staticmethod
    def fill_over_m(g: Graph) -> int:
        search = mcs_search(g)
        ref = bf_elimination_game(g, search.order)
        excess = sum(map(len, ref)) - 2 * g.edge_count()
        got = _violator_fill(g)
        if excess > 0:
            assert got is None
            return excess
        assert got is not None
        fill, passed = got
        # each vertex's fill is what it misses in g of its later set in H,
        # and that later set is its search list plus the fill
        assert fill == {v: ref[v] - g.adj[v] for v in g.vertices()
                        if not g.adj[v] >= ref[v]}
        assert all(set(search.later[v]) | fill.get(v, set()) == ref[v]
                   for v in g.vertices())
        # only the violators and the filled vertices are worked, and those
        # that passed fill on have a later set that is no clique of g
        assert passed <= set(search.violators) | fill.keys()
        assert all(not g.is_clique(ref[v]) for v in passed)
        return excess

    def test_random_gnp(self):
        rng = random.Random(15)
        excess = {
            self.fill_over_m(g) for g in (
                random_gnp(rng, rng.randint(1, 30), rng.choice((0.1, 0.15, 0.2, 0.5)))
                for _ in range(600)
            ) if g.edge_count()
        }
        # both sides of the cap: fill m is kept, fill m + 1 declined
        assert {-1, 0, 1, 2} <= excess

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_members_and_planted_defects(self, k):
        for seed in range(3):
            member = generate_almost_chordal(40, k, 3, seed)
            assert self.fill_over_m(member) < 0
            for kind in ("house", "c4-overlap", "hole", "separator"):
                assert self.fill_over_m(planted(member, k, kind)) < 0


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
        g = path_graph(15)
        with pytest.raises(CapError):
            enumerate_minimal_separators(g)
        assert enumerate_minimal_separators(g, cap_n=15)

    @given(random_graph_strategy(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce(self, g):
        got = set(enumerate_minimal_separators(g))
        assert got == bf_minimal_separators(g)


class TestSplitFlow:
    """The max-flow read off ``g.adj`` against the dict network it replaced:
    every pair's verdict and cut, and each whole decision, are the same."""

    @staticmethod
    def inputs() -> list[Graph]:
        rng = random.Random(21)
        graphs = [random_gnp(rng, rng.randint(3, 40), p)
                  for p in (0.08, 0.1, 0.2, 0.35, 0.5, 0.7) for _ in range(12)]
        for k in (2, 3, 4):
            member = generate_almost_chordal(30, k, 2, seed=k)
            graphs.append(member)
            graphs += [planted(member, k, kind)
                       for kind in ("house", "c4-overlap", "hole", "separator")]
        return [g for g in graphs if not g.is_complete()]

    def test_matches_dict_network_reference(self):
        rejected = cut_pairs = 0
        for g in self.inputs():
            base = bf_split_network(g)
            pairs = [(s, t) for s in range(min(2, g.n)) for t in g.vertices()
                     if t != s and t not in g.adj[s]]
            for k in range(1, 7):
                res = _flow_connectivity(g, k)
                assert res == bf_flow_connectivity(g, k), (g, k)
                rejected += not res
                for s, t in pairs:
                    cut = _split_flow_mincut(g, s, t, k)
                    assert cut == bf_split_flow_mincut(base, s, t, k), (g, s, t, k)
                    cut_pairs += cut is not None
        assert rejected >= 100 and cut_pairs >= 1000

    def test_second_path_gives_back_two_steps(self):
        # the shortest path 0-1-2-3-4 goes first; the second enters 3 from
        # 7, walks 3's flow back to 2 and 2's back to 1, and leaves 1 by 8
        g = Graph.from_edges(11, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6),
                                  (6, 7), (7, 3), (1, 8), (8, 9), (9, 10), (10, 4)])
        assert _split_flow_mincut(g, 0, 4, 2) is None
        cut = _split_flow_mincut(g, 0, 4, 3)
        assert cut == bf_split_flow_mincut(bf_split_network(g), 0, 4, 3)
        assert len(cut) == 2
