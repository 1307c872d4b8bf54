"""Exhaustive partition oracle, cross-checked by direct label enumeration."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from glpart import (
    CapError,
    GLPartition,
    Graph,
    PartitionRequest,
    WeightedGraph,
    brute_force_gl,
    generate_almost_chordal,
    generate_ktree,
)
from glpart.oracle import _connected_sets, _feasible
from glpart.partition import gl_partition_chordal

from bruteforce import (
    bf_gl_partition,
    bf_is_connected,
    bf_recursive_brute_force_gl,
    bf_recursive_connected_sets,
    path_graph,
    without_edges,
)
from test_graph import random_graph_strategy
from test_partition import random_request


class TestBruteForce:
    def test_feasible_refuses_a_terminal_left_out(self):
        # the search keeps every later terminal available, so only a direct
        # call leaves one out; without the refusal the tally of its
        # demand would raise KeyError
        assert _feasible(path_graph(4), frozenset({0, 1}), (3,), (2,)) is False

    def test_path_split(self):
        g = path_graph(5)
        req = PartitionRequest((0, 4), (2, 3))
        got = brute_force_gl(g, req)
        assert got is not None
        assert got.parts == (frozenset({0, 1}), frozenset({2, 3, 4}))
        assert got.deviation == 0

    def test_infeasible_returns_none(self):
        # a star cannot give both leaves-only parts connectivity
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        req = PartitionRequest((1, 2), (2, 2))
        assert brute_force_gl(g, req) is None

    def test_found_partition_is_valid(self):
        rng = random.Random(3)
        hits = 0
        for _ in range(40):
            n = rng.randint(4, 8)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [p for p in pairs if rng.random() < 0.5]
            g = Graph.from_edges(n, edges)
            req = random_request(rng, n, 2)
            got = brute_force_gl(g, req)
            if got is None:
                continue
            hits += 1
            seen: set[int] = set()
            for i, p in enumerate(got.parts):
                assert req.terminals[i] in p
                assert len(p) == req.demands[i]
                assert bf_is_connected(g, p)
                seen |= p
            assert seen == set(range(n))
        assert hits > 5

    def test_cap_enforced(self):
        g = path_graph(13)
        with pytest.raises(CapError):
            brute_force_gl(g, PartitionRequest((0, 12), (6, 7)))
        assert brute_force_gl(g, PartitionRequest((0, 12), (6, 7)), cap=13)

    @given(random_graph_strategy(max_n=7), st.data())
    @settings(max_examples=100, deadline=None)
    def test_feasibility_matches_label_enumeration(self, g, data):
        if g.n < 3:
            return
        k = data.draw(st.sampled_from([2, 3]))
        if g.n < k + 1:
            return
        terms = tuple(data.draw(st.permutations(range(g.n)))[:k])
        demands = [1] * k
        for _ in range(g.n - k):
            demands[data.draw(st.integers(0, k - 1))] += 1
        req = PartitionRequest(terms, tuple(demands))
        lib = brute_force_gl(g, req)
        ref = bf_gl_partition(g, terms, tuple(demands))
        assert (lib is None) == (ref is None)

    def test_agrees_with_chordal_solver(self):
        rng = random.Random(11)
        for _ in range(15):
            k = rng.randint(2, 3)
            n = rng.randint(k + 2, 9)
            g = generate_ktree(n, k, rng.randrange(2**32))
            req = random_request(rng, n, k)
            exact = gl_partition_chordal(g, req)
            assert exact.deviation == 0
            assert brute_force_gl(g, req) is not None


def _outcome(solve, g, req, cap):
    try:
        return solve(g, req, cap=cap)
    except CapError as exc:
        return str(exc)


class TestAgainstRecursiveOracle:
    """The stack-driven oracle returns what the recursive one returned."""

    @staticmethod
    def graphs():
        rng = random.Random(26)
        for k in (2, 3):
            for _ in range(25):
                n = rng.randint(k + 1, 10)
                g = generate_ktree(n, k, rng.randrange(2**32))
                yield rng, g, k
                # fewer edges leave some requests without a partition
                yield rng, without_edges(g, rng, rng.randint(1, k)), k
            for _ in range(10):
                n = rng.randint(k + 5, 10)
                yield rng, generate_almost_chordal(n, k, 1, rng.randrange(2**32)), k

    def test_same_partition_none_or_cap_error(self):
        found = missing = capped = 0
        for rng, g, k in self.graphs():
            for _ in range(3):
                req = random_request(rng, g.n, k)
                cap = rng.choice((g.n - 1, g.n, 12))
                got = _outcome(brute_force_gl, g, req, cap)
                assert got == _outcome(bf_recursive_brute_force_gl, g, req, cap), (g, req)
                found += isinstance(got, GLPartition)
                missing += got is None
                capped += isinstance(got, str)
        assert found > 50 and missing > 10 and capped > 50

    def test_same_sets_in_the_same_order(self):
        for rng, g, _ in self.graphs():
            allowed = frozenset(v for v in g.vertices() if rng.random() < 0.8)
            start, size = rng.randrange(g.n), rng.randint(0, g.n)
            assert list(_connected_sets(g, start, size, allowed)) == list(
                bf_recursive_connected_sets(g, start, size, allowed))

    def test_long_path_needs_no_recursion(self):
        # the recursive oracle raised RecursionError here: it nested one
        # call per vertex added to the 1,050-vertex part
        g = path_graph(1100)
        got = brute_force_gl(g, PartitionRequest((0, 1099), (1050, 50)), cap=1100)
        assert got.parts == (frozenset(range(1050)), frozenset(range(1050, 1100)))
