"""Vertex connectivity decisions and minimal separator enumeration."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from glpart import (
    CapError,
    Graph,
    enumerate_induced_c4,
    generate_almost_chordal,
    vertex_connectivity_at_least,
)
from glpart import connectivity
from glpart.connectivity import _clique_atoms, _flow_connectivity, _kappa_up_to_2

from bruteforce import (
    _separates,
    bf_clique_atoms,
    bf_is_connected,
    bf_minimal_separators,
    bf_vertex_connectivity,
    enumerate_minimal_separators,
    is_chordal,
    random_chordal,
    random_gnp,
)
from test_graph import random_graph_strategy
from test_recognition import with_planted_cycle


def exact_kappa(g: Graph) -> int:
    k = 0
    while vertex_connectivity_at_least(g, k + 1):
        k += 1
    return k


def _atoms(g: Graph, k: int):
    return _clique_atoms(g, k, enumerate_induced_c4(g))


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


def planted(member: Graph, k: int, kind: str) -> Graph:
    """``member`` with one planted defect next to its last 4-cycle, or on
    the k-clique 0..k-1 of its k-tree base."""
    a, b = enumerate_induced_c4(member).cycles[-1][:2]  # adjacent on the ring
    n = member.n
    if kind == "hole":
        return with_planted_cycle(member, 5, tuple(range(k)))
    extra = {
        "house": [(a, n), (b, n)],
        "c4-overlap": [(a, n), (n, n + 1), (n + 1, b)],
        "separator": [(x, n) for x in range(k - 1)],
    }[kind]
    return Graph.from_edges(
        max(max(e) for e in extra) + 1, member.edges() + extra
    )


def without_edges(g: Graph, rng: random.Random, count: int) -> Graph:
    edges = g.edges()
    drop = set(rng.sample(range(len(edges)), count))
    return Graph.from_edges(g.n, [e for i, e in enumerate(edges) if i not in drop])


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
        for g, kappa in ((Graph.cycle(n), 2), (Graph.path(n), 1)):
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
        p, q, r, s = enumerate_induced_c4(member).cycles[0]
        g = Graph.from_edges(member.n, [
            e for e in member.edges() if p not in e or set(e) & {q, s}
        ])
        res = vertex_connectivity_at_least(g, k)
        assert not res and res.witness.separator == frozenset({q, s})
        self.assert_matches_flow(g, k)

    def test_members_accepted_without_whole_graph_flow(self, monkeypatch):
        sizes = []

        def spy(g, k):
            sizes.append(g.n)
            return _flow_connectivity(g, k)

        monkeypatch.setattr(connectivity, "_flow_connectivity", spy)
        for k in (3, 4):
            member = generate_almost_chordal(120, k, 6, seed=k)
            assert vertex_connectivity_at_least(member, k)
            assert sizes and max(sizes) == k + 4
            sizes.clear()

    def test_atoms_match_bruteforce(self):
        rng = random.Random(13)
        graphs = [random_gnp(rng, rng.randint(4, 9), rng.choice((0.3, 0.5, 0.7)))
                  for _ in range(40)]
        graphs += [generate_almost_chordal(n, 2, 1, seed=n) for n in (7, 8, 9)]
        graphs.append(planted(generate_almost_chordal(7, 2, 1, seed=1), 2, "house"))
        split = 0
        for g in graphs:
            atoms = _atoms(g, 1)
            if atoms is None:
                continue
            got = [frozenset(a) for a in atoms]
            assert len(set(got)) == len(got)
            assert set(got) == bf_clique_atoms(g)
            split += len(got) > 1
        assert split >= 10

    def test_declines_without_a_minimal_chordal_fill(self, c5):
        # the octahedron's 4-cycles (0, 2, 1, 3), (0, 4, 1, 5), (2, 4, 3, 5)
        # take fills (0, 1), (0, 1), (2, 3); the first one's other diagonal
        # is filled too
        octahedron = Graph.from_edges(6, [
            (a, b) for a in range(6) for b in range(a + 1, 6) if b != a ^ 1
        ])
        assert _atoms(octahedron, 1) is None
        assert vertex_connectivity_at_least(octahedron, 4)
        assert _atoms(c5, 1) is None

    def test_declines_on_small_separator(self):
        member = generate_almost_chordal(40, 3, 2, seed=5)
        assert _atoms(member, 3) is not None
        assert _atoms(member, 4) is None


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
