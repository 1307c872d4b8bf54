"""Connected partition solvers on chordal inputs, exact and weighted."""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from glpart import (
    DemandError,
    DeviationRule,
    Graph,
    PartitionRequest,
    PreconditionError,
    SolverStallError,
    WeightedGraph,
    generate_ktree,
    gl_partition_chordal,
    gl_partition_chordal_weighted,
    verify_partition,
)

from glpart.connectivity import _flow_connectivity

from bruteforce import bf_is_connected, random_chordal
from test_graph import random_graph_strategy


def random_request(
    rng: random.Random, n: int, k: int, min_demand: int = 1
) -> PartitionRequest:
    terms = tuple(rng.sample(range(n), k))
    demands = [min_demand] * k
    for _ in range(n - min_demand * k):
        demands[rng.randrange(k)] += 1
    return PartitionRequest(terms, tuple(demands))


def weighted_request(
    rng: random.Random, wg: WeightedGraph, k: int, floor_above_terminal=False
) -> PartitionRequest:
    # demands never fall below the terminal's own weight, else infeasible
    terms = tuple(rng.sample(range(wg.n), k))
    base = [wg.weights[t] + (1 if floor_above_terminal else 0) for t in terms]
    rem = wg.total_weight() - sum(base)
    assert rem >= 0
    extra = [0] * k
    for _ in range(rem):
        extra[rng.randrange(k)] += 1
    return PartitionRequest(terms, tuple(b + e for b, e in zip(base, extra)))


class TestRequestValidation:
    def test_duplicate_terminals(self):
        with pytest.raises(DemandError):
            PartitionRequest((0, 0), (2, 2))

    def test_length_mismatch(self):
        with pytest.raises(DemandError):
            PartitionRequest((0, 1), (2, 2, 2))

    def test_nonpositive_demand(self):
        with pytest.raises(DemandError):
            PartitionRequest((0, 1), (0, 4))

    def test_single_part_rejected(self):
        with pytest.raises(DemandError):
            PartitionRequest((0,), (4,))

    def test_k_property(self):
        assert PartitionRequest((0, 1, 2), (1, 1, 2)).k == 3


class TestChordalExact:
    def test_tiny_complete(self):
        g = Graph.complete(4)
        req = PartitionRequest((0, 3), (2, 2))
        part = gl_partition_chordal(g, req)
        assert part.deviation == 0
        assert {0, 3} <= {min(p) for p in part.parts} | {max(p) for p in part.parts}

    def test_ktree_instances(self):
        rng = random.Random(2)
        for _ in range(25):
            k = rng.randint(2, 5)
            n = rng.randint(k + 2, 30)
            g = generate_ktree(n, k, rng.randrange(2**32))
            req = random_request(rng, n, k)
            part = gl_partition_chordal(g, req)
            assert part.deviation == 0
            rep = verify_partition(
                WeightedGraph.unit(g), req, part, DeviationRule.exact()
            )
            assert rep.ok, rep.first_violation

    def test_parts_follow_request_order(self):
        g = Graph.complete(5)
        req = PartitionRequest((4, 1), (2, 3))
        part = gl_partition_chordal(g, req)
        assert 4 in part.parts[0] and 1 in part.parts[1]
        assert len(part.parts[0]) == 2 and len(part.parts[1]) == 3

    def test_demand_sum_mismatch(self):
        g = Graph.complete(4)
        with pytest.raises(DemandError):
            gl_partition_chordal(g, PartitionRequest((0, 1), (2, 3)))

    def test_rejects_nonchordal(self, c4):
        with pytest.raises(PreconditionError):
            gl_partition_chordal(c4, PartitionRequest((0, 1), (2, 2)))

    def test_rejects_underconnected(self, p4):
        # a path is 1-connected but k=2 demands 2-connectivity
        with pytest.raises(PreconditionError) as ei:
            gl_partition_chordal(p4, PartitionRequest((0, 3), (2, 2)))
        assert ei.value.witness is not None

    def test_validate_false_skips_checks(self, c4):
        # caller takes responsibility; C4 with opposite terminals still works
        part = gl_partition_chordal(
            c4, PartitionRequest((0, 2), (2, 2)), validate=False
        )
        assert part.deviation == 0

    def test_deterministic(self):
        g = generate_ktree(18, 3, 7)
        req = PartitionRequest((0, 5, 11), (6, 6, 6))
        assert gl_partition_chordal(g, req) == gl_partition_chordal(g, req)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_every_part_connected_with_terminal(self, seed):
        rng = random.Random(seed)
        k = rng.randint(2, 4)
        n = rng.randint(k + 2, 24)
        g = generate_ktree(n, k, seed)
        req = random_request(rng, n, k)
        part = gl_partition_chordal(g, req)
        seen: set[int] = set()
        for i, p in enumerate(part.parts):
            assert req.terminals[i] in p
            assert len(p) == req.demands[i]
            assert bf_is_connected(g, p)
            assert not (seen & p)
            seen |= p
        assert seen == set(range(n))


class TestSkippedChecks:
    """With validation off a bad input may stall, but never yields a bad part."""

    @given(random_graph_strategy(max_n=8), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_stall_or_connected_cover(self, g, seed):
        assume(g.n >= 2)
        rng = random.Random(seed)
        k = rng.randint(2, min(4, g.n))
        unit = WeightedGraph.unit(g)
        heavy = WeightedGraph(g, tuple(rng.randint(1, 5) for _ in range(g.n)))
        unit_req = weighted_request(rng, unit, k)
        cases = [
            (gl_partition_chordal, g, unit_req),
            (gl_partition_chordal_weighted, unit, unit_req),
            (gl_partition_chordal_weighted, heavy, weighted_request(rng, heavy, k)),
        ]
        for solve, graph, req in cases:
            try:
                part = solve(graph, req, validate=False)
            except SolverStallError:
                continue
            seen: set[int] = set()
            for t, p in zip(req.terminals, part.parts):
                assert t in p and bf_is_connected(g, p)
                assert not (seen & p)
                seen |= p
            assert seen == set(range(g.n))


class TestRandomChordal:
    """The growth loop on chordal graphs that are not k-trees."""

    @given(
        st.integers(0, 2**32 - 1), st.integers(3, 40), st.integers(2, 4),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_validated_solve_verifies(self, seed, n, k, weighted):
        rng = random.Random(seed)
        g = random_chordal(rng, n)
        weights = tuple(rng.randint(1, 9) if weighted else 1 for _ in range(n))
        wg = WeightedGraph(g, weights)
        req = weighted_request(rng, wg, min(k, n))
        try:
            part = gl_partition_chordal_weighted(wg, req, validate=True)
        except PreconditionError:
            assert g.is_complete() or not _flow_connectivity(g, req.k)
            return
        rule = DeviationRule.window(wg.w_max) if weighted else DeviationRule.exact()
        rep = verify_partition(wg, req, part, rule)
        assert rep.ok, rep.first_violation


class TestChordalWeighted:
    def test_unit_weights_reduce_to_exact(self):
        g = generate_ktree(16, 3, 5)
        req = PartitionRequest((0, 4, 9), (5, 5, 6))
        part = gl_partition_chordal_weighted(WeightedGraph.unit(g), req)
        assert part.deviation == 0

    def test_window_holds(self):
        rng = random.Random(31)
        for _ in range(25):
            k = rng.randint(2, 4)
            n = rng.randint(k + 2, 26)
            g = generate_ktree(n, k, rng.randrange(2**32))
            wg = WeightedGraph(g, tuple(rng.randint(1, 7) for _ in range(n)))
            req = weighted_request(rng, wg, k)
            part = gl_partition_chordal_weighted(wg, req, debug_invariants=True)
            rep = verify_partition(wg, req, part, DeviationRule.window(wg.w_max))
            assert rep.ok, rep.first_violation

    def test_overweight_terminal_rejected_by_default(self):
        g = Graph.complete(4)
        wg = WeightedGraph(g, (9, 1, 1, 1))
        # part 0 must end strictly below 1 + w_max = 10, but w(t0) = 9
        # forces it to [9, 9]; demand 1 cannot be met inside the window
        req = PartitionRequest((0, 1), (1, 11))
        with pytest.raises(DemandError):
            gl_partition_chordal_weighted(wg, req)

    def test_overweight_terminal_relaxation(self):
        g = Graph.complete(4)
        wg = WeightedGraph(g, (9, 1, 1, 1))
        req = PartitionRequest((0, 1), (1, 11))
        part = gl_partition_chordal_weighted(
            wg, req, allow_overweight_terminals=True
        )
        assert 0 in part.parts[0]

    def test_deterministic(self):
        g = generate_ktree(14, 2, 3)
        wg = WeightedGraph(g, tuple((v % 5) + 1 for v in range(14)))
        req = PartitionRequest((2, 7), (20, wg.total_weight() - 20))
        a = gl_partition_chordal_weighted(wg, req)
        b = gl_partition_chordal_weighted(wg, req)
        assert a == b

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_invariants_never_fire(self, seed):
        rng = random.Random(seed)
        k = rng.randint(2, 4)
        n = rng.randint(k + 2, 22)
        g = generate_ktree(n, k, seed)
        wg = WeightedGraph(g, tuple(rng.randint(1, 7) for _ in range(n)))
        req = weighted_request(rng, wg, k)
        part = gl_partition_chordal_weighted(wg, req, debug_invariants=True)
        rep = verify_partition(wg, req, part, DeviationRule.window(wg.w_max))
        assert rep.ok, rep.first_violation
