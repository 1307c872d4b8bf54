"""Chord-and-contract pipeline: preprocessing, contraction plan, full solve."""

from __future__ import annotations

import random

import pytest

from glpart import (
    DeviationRule,
    Graph,
    PartitionRequest,
    PipelineInvariantError,
    PreconditionError,
    WeightedGraph,
    add_terminal_chords,
    build_contraction_plan,
    enumerate_induced_c4,
    gl_partition_almost_chordal,
    generate_almost_chordal,
    induced_subgraph,
    verify_partition,
    vertex_connectivity_at_least,
)

from bruteforce import build_c4_incidence, is_chordal, random_gnp
from test_partition import random_request, weighted_request


def member_instance(seed: int, n=24, k=3, cycles=3):
    return generate_almost_chordal(n, k, cycles, seed=seed)


class TestAddTerminalChords:
    def test_no_shared_cycle_no_chord(self, c4):
        g2, chords = add_terminal_chords(c4, (0, 1))
        assert chords == ()
        assert g2 == c4

    def test_opposite_terminals_get_chord(self, c4):
        g2, chords = add_terminal_chords(c4, (0, 2))
        assert chords == ((0, 2),)
        assert is_chordal(g2)

    def test_adjacent_terminals_on_cycle_no_chord(self, c4):
        # both terminals on the cycle but adjacent: no diagonal to add
        g2, chords = add_terminal_chords(c4, (0, 1))
        assert chords == ()

    def test_fixpoint_over_multiple_cycles(self):
        g = member_instance(3)
        cat = enumerate_induced_c4(g)
        # put two terminals diagonally on the first catalogued cycle
        cyc = cat.cycles[0]
        terms = (cyc[0], cyc[2], 0 if 0 not in cyc else max(range(g.n), key=lambda v: v not in cyc))
        g2, chords = add_terminal_chords(g, terms)
        assert (min(cyc[0], cyc[2]), max(cyc[0], cyc[2])) in chords
        assert len(enumerate_induced_c4(g2).cycles) < len(cat.cycles)


class TestContractionPlan:
    def test_no_cycles_no_edges(self, k5):
        plan = build_contraction_plan(k5, (0, 1))
        assert plan.contraction_edges == ()
        assert plan.c4_count == 0
        assert plan.contracted.graph == k5

    def test_one_edge_per_cycle_disjoint(self):
        for seed in range(5):
            g = member_instance(seed)
            plan = build_contraction_plan(g, (0, 1, 2))
            assert len(plan.contraction_edges) == plan.c4_count
            assert plan.c4_count == len(enumerate_induced_c4(g).cycles)
            touched: set[int] = set()
            for u, v in plan.contraction_edges:
                assert v in g.adj[u]
                assert not ({u, v} & touched)
                touched |= {u, v}

    def test_contracted_is_chordal_and_connected(self):
        for seed in range(5):
            g = member_instance(seed, k=4, n=30, cycles=4)
            plan = build_contraction_plan(g, (0, 1, 2, 3))
            assert is_chordal(plan.contracted.graph)
            assert vertex_connectivity_at_least(plan.contracted.graph, 4)

    def test_terminals_survive_distinct(self):
        g = member_instance(11)
        terms = (0, 5, 9)
        plan = build_contraction_plan(g, terms)
        mapped = [plan.terminal_map[t] for t in terms]
        assert len(set(mapped)) == len(terms)
        # no contraction edge joins two terminals
        for u, v in plan.contraction_edges:
            assert not ({u, v} <= set(terms))

    def test_merge_map_partitions_originals(self):
        g = member_instance(2)
        plan = build_contraction_plan(g, (0, 1, 2))
        covered: set[int] = set()
        for grp in plan.merge_map.groups:
            assert not (covered & grp)
            covered |= grp
        assert covered == set(range(g.n))
        # merged groups have weight (size) at most 2
        assert max(len(grp) for grp in plan.merge_map.groups) <= 2

    def test_greedy_fails_iff_incidence_not_forest(self):
        # the leaf-peeling greedy is the pipeline's only structure test
        rng = random.Random(23)
        outcomes = {True: 0, False: 0}
        for _ in range(300):
            g = random_gnp(rng, rng.randint(4, 14), rng.choice((0.2, 0.35, 0.5)))
            forest = build_c4_incidence(enumerate_induced_c4(g)).is_forest
            try:
                build_contraction_plan(g, ())
                stuck = False
            except PreconditionError as exc:
                assert "three private vertices" in str(exc)
                stuck = True
            except PipelineInvariantError:
                stuck = False  # peeled every cycle; the contraction is not chordal
            assert stuck == (not forest)
            outcomes[forest] += 1
        assert min(outcomes.values()) >= 50


class TestPipeline:
    def test_chordal_input_passthrough(self):
        from glpart import generate_ktree

        g = generate_ktree(15, 3, 4)
        wg = WeightedGraph.unit(g)
        req = PartitionRequest((0, 5, 10), (5, 5, 5))
        res = gl_partition_almost_chordal(wg, req)
        assert res.added_chords == ()
        assert res.contraction_edges == ()
        assert res.partition.deviation == 0

    def test_unweighted_deviation_at_most_one(self):
        rng = random.Random(5)
        for trial in range(10):
            k = rng.randint(2, 4)
            g = generate_almost_chordal(
                rng.randint(16, 34), k, rng.randint(1, 3), seed=trial
            )
            wg = WeightedGraph.unit(g)
            req = random_request(rng, g.n, k, min_demand=2)
            res = gl_partition_almost_chordal(wg, req)
            assert res.partition.deviation <= 1
            rep = verify_partition(wg, req, res.partition, DeviationRule.slack(1))
            assert rep.ok, rep.first_violation

    def test_weighted_double_window(self):
        rng = random.Random(17)
        for trial in range(8):
            g = generate_almost_chordal(24, 3, 2, seed=40 + trial)
            wg = WeightedGraph(g, tuple(rng.randint(1, 7) for _ in range(g.n)))
            req = weighted_request(rng, wg, 3, floor_above_terminal=True)
            res = gl_partition_almost_chordal(wg, req, debug_invariants=True)
            rep = verify_partition(
                wg, req, res.partition, DeviationRule.window(2 * wg.w_max)
            )
            assert rep.ok, rep.first_violation

    def test_unit_demand_terminals_peeled(self):
        g = member_instance(13, k=4, n=28, cycles=2)
        wg = WeightedGraph.unit(g)
        terms = (0, 3, 7, 11)
        demands = (1, 1, g.n - 12, 10)
        req = PartitionRequest(terms, demands)
        res = gl_partition_almost_chordal(wg, req)
        assert {t for _, t in res.peeled} == {0, 3}
        assert res.effective_k == 2
        assert res.partition.parts[0] == frozenset({0})
        assert res.partition.parts[1] == frozenset({3})
        rep = verify_partition(wg, req, res.partition, DeviationRule.slack(1))
        assert rep.ok, rep.first_violation

    def test_all_unit_demands_rejected(self, k4):
        # peeling would drive the residual below 2 terminals
        wg = WeightedGraph.unit(k4)
        req = PartitionRequest((0, 1, 2, 3), (1, 1, 1, 1))
        with pytest.raises(PreconditionError):
            gl_partition_almost_chordal(wg, req)

    def test_rejects_nonmember(self, house):
        wg = WeightedGraph.unit(house)
        with pytest.raises(PreconditionError) as ei:
            gl_partition_almost_chordal(wg, PartitionRequest((0, 1), (2, 3)))
        assert ei.value.witness is not None

    def test_audit_fields_consistent(self):
        g = member_instance(21)
        wg = WeightedGraph.unit(g)
        req = PartitionRequest((0, 8, 16), (8, 8, g.n - 16))
        res = gl_partition_almost_chordal(wg, req)
        assert len(res.contraction_edges) == res.c4_count
        assert is_chordal(res.contracted.graph)
        assert len(res.contracted_terminals) == 3
        assert vertex_connectivity_at_least(res.contracted.graph, res.effective_k)

    def test_deterministic(self):
        g = member_instance(9)
        wg = WeightedGraph.unit(g)
        req = PartitionRequest((1, 6, 12), (8, 8, g.n - 16))
        a = gl_partition_almost_chordal(wg, req)
        b = gl_partition_almost_chordal(wg, req)
        assert a == b

    def test_shared_catalog_matches_public_stages(self):
        # the solve carries one catalog of g through peeling, chords and
        # contraction; the public stages each build their own
        rng = random.Random(23)
        seen = {"peeled": 0, "chords": 0}
        for trial in range(30):
            k = rng.randint(3, 5)
            g = generate_almost_chordal(
                rng.randint(30, 60), k, rng.randint(1, 4), seed=trial
            )
            terms = list(rng.choice(enumerate_induced_c4(g).cycles)[::2])
            terms += rng.sample([v for v in g.vertices() if v not in terms], k - 2)
            rng.shuffle(terms)
            demands = [2, 2] + [rng.choice((1, 2)) for _ in range(k - 2)]
            demands[-1] += g.n - sum(demands)
            req = PartitionRequest(tuple(terms), tuple(demands))
            res = gl_partition_almost_chordal(WeightedGraph.unit(g), req)

            peeled = {t for _, t in res.peeled}
            g1, back = induced_subgraph(g, [v for v in g.vertices() if v not in peeled])
            fwd = {old: new for new, old in enumerate(back)}
            open_terms = tuple(fwd[t] for t in terms if t not in peeled)
            g2, chords = add_terminal_chords(g1, open_terms)
            plan = build_contraction_plan(g2, open_terms)

            def orig(edges):
                return tuple(tuple(sorted((back[a], back[b]))) for a, b in edges)

            assert res.added_chords == orig(chords)
            assert res.contraction_edges == orig(plan.contraction_edges)
            assert res.c4_count == plan.c4_count
            seen["peeled"] += bool(peeled)
            seen["chords"] += bool(chords)
        assert min(seen.values()) >= 5
