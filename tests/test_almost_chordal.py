"""Chord-and-contract pipeline: preprocessing, contraction plan, full solve."""

from __future__ import annotations

import random

import pytest

import glpart.almost_chordal as almost_chordal
from glpart import (
    DeviationRule,
    GlpartError,
    Graph,
    PartitionRequest,
    PipelineInvariantError,
    PreconditionError,
    WeightedGraph,
    generate_almost_chordal,
    solve,
    verify_partition,
    vertex_connectivity_at_least,
)
from glpart.almost_chordal import (
    add_terminal_chords,
    build_contraction_plan,
    gl_partition_almost_chordal,
)
from glpart.c4 import _build_catalog, enumerate_induced_c4
from glpart.graph import induced_subgraph

from bruteforce import (
    all_pairs_induced_c4,
    bf_add_terminal_chords,
    build_c4_incidence,
    is_chordal,
    iter_nonedges,
    planted,
    quadratic_contraction_edges,
    random_gnp,
    shared_vertex_member,
)
from test_acceptance import random_composition
from test_partition import error_or, random_request, weighted_request


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
        cyc = cat[0]
        terms = (cyc[0], cyc[2], 0 if 0 not in cyc else max(range(g.n), key=lambda v: v not in cyc))
        g2, chords = add_terminal_chords(g, terms)
        assert (min(cyc[0], cyc[2]), max(cyc[0], cyc[2])) in chords
        assert len(enumerate_induced_c4(g2)) < len(cat)

    def test_matches_one_chord_per_walk_on_members(self):
        # terminals on ring diagonals, some rings fully terminal, half of
        # the members with rings that share a vertex
        rng = random.Random(29)
        chorded = 0
        for trial in range(120):
            k = rng.choice((2, 3, 4))
            cycles = rng.randint(1, 5)
            n = rng.randint(k + 1 + 4 * cycles, k + 20 + 4 * cycles)
            if trial % 2:
                g = shared_vertex_member(n, k, cycles, rng.randint(1, cycles), trial)
            else:
                g = generate_almost_chordal(n, k, cycles, seed=trial)
            terms = set(rng.sample(range(g.n), rng.randint(0, 3)))
            for cyc in all_pairs_induced_c4(g):
                # one diagonal, both, or none
                terms.update(rng.choice((cyc[0::2], cyc[1::2], cyc, ())))
            terms = tuple(sorted(terms))
            expected = bf_add_terminal_chords(Graph.from_edges(g.n, g.edges()), terms)
            assert add_terminal_chords(g, terms) == expected, (trial, terms)
            chorded += bool(expected[1])
        assert chorded >= 100

    def test_postcondition_off_the_class(self):
        rng = random.Random(31)
        for _ in range(400):
            g = random_gnp(rng, rng.randint(4, 14), rng.choice((0.3, 0.5, 0.7)))
            tset = set(rng.sample(range(g.n), rng.randint(2, g.n)))
            g2, chords = add_terminal_chords(g, tuple(sorted(tset)))
            assert len(set(chords)) == len(chords)
            assert all(tset.issuperset(e) and e[1] not in g.adj[e[0]] for e in chords)
            assert g2 == g.with_edges(chords)
            for a, b, c, d in all_pairs_induced_c4(g2):
                assert not tset.issuperset((a, c))
                assert not tset.issuperset((b, d))


class TestContractionPlan:
    def test_no_cycles_no_edges(self, k5):
        plan = build_contraction_plan(k5, (0, 1))
        assert plan.contraction_edges == ()
        assert enumerate_induced_c4(k5) == ()
        assert plan.contracted.graph == k5

    def test_one_edge_per_cycle_disjoint(self):
        for seed in range(5):
            g = member_instance(seed)
            plan = build_contraction_plan(g, (0, 1, 2))
            assert len(plan.contraction_edges) == len(enumerate_induced_c4(g))
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

    def test_heap_greedy_matches_quadratic_reference(self, monkeypatch):
        # the greedy's picks reach contract_matching; catch them there, so
        # a contraction that fails afterwards still shows what was picked
        picked: list[tuple] = []
        real = almost_chordal.contract_matching

        def spy(g, edges):
            picked.append(tuple(edges))
            return real(g, edges)

        monkeypatch.setattr(almost_chordal, "contract_matching", spy)

        def outcome(fn):
            try:
                return fn()
            except GlpartError as exc:
                return type(exc), str(exc)

        rng = random.Random(41)
        kinds: dict[str, int] = {}
        for trial in range(360):
            if trial % 3 == 2:
                g = random_gnp(rng, rng.randint(4, 14), rng.choice((0.2, 0.35, 0.5)))
            else:
                k, cycles = rng.randint(2, 4), rng.randint(1, 5)
                n = k + 1 + 4 * cycles + rng.randint(0, 8)
                g = generate_almost_chordal(n, k, cycles, seed=trial)
                if trial % 3 == 1:
                    g = g.with_edges(rng.sample(list(iter_nonedges(g)), 2))
            terms = tuple(rng.sample(range(g.n), rng.randint(2, min(4, g.n))))
            picked.clear()
            failed = outcome(lambda: build_contraction_plan(g, terms))
            got = picked[0] if picked else failed
            assert got == outcome(lambda: quadratic_contraction_edges(g, terms))
            kind = "picked" if picked else failed[0].__name__
            kinds[kind] = kinds.get(kind, 0) + 1
        assert set(kinds) == {"picked", "PreconditionError", "PipelineInvariantError"}
        assert kinds["picked"] >= 150


def real_deviation(wg: WeightedGraph, req: PartitionRequest, res) -> int:
    """The largest gap between a part's weight and its demand, recounted."""
    parts = res.partition.parts
    return max(abs(wg.weight_of(p) - d) for p, d in zip(parts, req.demands))


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
            res = gl_partition_almost_chordal(wg, req)
            rep = verify_partition(
                wg, req, res.partition, DeviationRule.window(2 * wg.w_max)
            )
            assert rep.ok, rep.first_violation
            assert res.partition.deviation == real_deviation(wg, req, res)

    def test_unit_demand_terminals_peeled(self):
        g = member_instance(13, k=4, n=28, cycles=2)
        wg = WeightedGraph.unit(g)
        terms = (0, 3, 7, 11)
        demands = (1, 1, g.n - 12, 10)
        req = PartitionRequest(terms, demands)
        res = gl_partition_almost_chordal(wg, req)
        assert {t for _, t in res.peeled} == {0, 3}
        assert len(res.contracted_terminals) == 2
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
        assert len(res.contraction_edges) == len(enumerate_induced_c4(g))
        assert is_chordal(res.contracted.graph)
        assert len(res.contracted_terminals) == 3
        assert vertex_connectivity_at_least(res.contracted.graph,
                                            len(res.contracted_terminals))

    def test_deterministic(self):
        g = member_instance(9)
        wg = WeightedGraph.unit(g)
        req = PartitionRequest((1, 6, 12), (8, 8, g.n - 16))
        a = gl_partition_almost_chordal(wg, req)
        b = gl_partition_almost_chordal(wg, req)
        assert a == b

    def test_shared_catalog_matches_public_stages(self):
        # the solve's stages read the catalogs memoized on its own graphs;
        # here the stages run on fresh graphs and build their own
        rng = random.Random(23)
        seen = {"peeled": 0, "chords": 0}
        for trial in range(30):
            k = rng.randint(3, 5)
            g = generate_almost_chordal(
                rng.randint(30, 60), k, rng.randint(1, 4), seed=trial
            )
            terms = list(rng.choice(enumerate_induced_c4(g))[::2])
            terms += rng.sample([v for v in g.vertices() if v not in terms], k - 2)
            rng.shuffle(terms)
            demands = [2, 2] + [rng.choice((1, 2)) for _ in range(k - 2)]
            demands[-1] += g.n - sum(demands)
            req = PartitionRequest(tuple(terms), tuple(demands))
            wg = WeightedGraph.unit(g)
            res = gl_partition_almost_chordal(wg, req)

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
            assert len(plan.contraction_edges) == len(enumerate_induced_c4(g2))
            # the groups, weights and terminals read group by group; the
            # merged groups are the contracted pairs, by their kept ids
            groups = plan.merge_map.groups
            assert tuple(map(frozenset, sorted(res.contraction_edges))) == tuple(
                frozenset(back[v] for v in grp) for grp in groups if len(grp) >= 2)
            assert plan.contracted.weights == tuple(map(len, groups))
            assert res.contracted.weights == tuple(
                sum(wg.weights[back[v]] for v in grp) for grp in groups)
            assert res.contracted_terminals == tuple(
                next(x for x, grp in enumerate(groups) if t in grp)
                for t in open_terms)
            assert res.partition.deviation == real_deviation(wg, req, res)
            seen["peeled"] += bool(peeled)
            seen["chords"] += bool(chords)
        assert min(seen.values()) >= 5


def forced_merge_instance(rng: random.Random, k: int):
    """A weighted member whose terminals sit on the first vertex of some
    rings, each with a heavy next vertex, the contraction's usual partner,
    and demands that close such a group at its start, over by less than
    the partner's weight; a few other terminals may be peeled. None when
    no other terminal stays open or the draw leaves it no room."""
    cycles = rng.randint(k, k + 2)
    n = 4 * cycles + rng.randint(2 * k + 2, 30)
    g = generate_almost_chordal(n, k, cycles, seed=rng.randrange(1 << 30))
    base = n - 4 * cycles
    on_rings = rng.sample(range(base, n, 4), rng.randint(1, k))
    terminals = on_rings + rng.sample(range(base), k - len(on_rings))
    rng.shuffle(terminals)
    weights = [rng.randint(1, 2) for _ in range(n)]
    heavy = rng.randint(2, 9)
    demands = {}
    for t in on_rings:
        weights[t + 1] = heavy
        demands[t] = rng.randint(weights[t] + 1, weights[t] + heavy)
    others = [t for t in terminals if t not in demands]
    if others and rng.random() < 0.3:
        for t in rng.sample(others, rng.randrange(len(others))):
            demands[t] = weights[t]
    rest = [t for t in others if t not in demands]
    drawn = rest and random_composition(
        rng, sum(weights) - sum(demands.values()), len(rest),
        [weights[t] + 1 for t in rest])
    if not drawn:
        return None
    demands.update(zip(rest, drawn))
    return (WeightedGraph(g, tuple(weights)),
            PartitionRequest(tuple(terminals), tuple(map(demands.get, terminals))))


class TestWeightedBound:
    """The bound weighted member solves meet: strictly within
    max(2, k' - 1) * w_max, for the k' parts still open after the peel,
    so within 2 * w_max while k' <= 3."""

    @staticmethod
    def assert_within_bound(wg, req, res):
        # max(2, k' - 1) is 2 while k' <= 3
        k_open = len(res.contracted_terminals)
        rule = DeviationRule.window(max(2, k_open - 1) * wg.w_max)
        rep = verify_partition(wg, req, res.partition, rule)
        assert rep.ok, (k_open, rep.first_violation)

    def test_three_closed_groups_miss_the_double_window(self):
        # each terminal group merges a weight-1 terminal with a weight-9
        # partner and starts 8 over its demand of 2; the one open part
        # takes all 24, past 2 * w_max = 18 but inside 3 * w_max
        g = generate_almost_chordal(60, 4, 3, seed=1)
        weights = [1] * g.n
        for v in (49, 53, 57):
            weights[v] = 9
        wg = WeightedGraph(g, tuple(weights))
        req = PartitionRequest((48, 52, 56, 0), (2, 2, 2, 78))
        res = gl_partition_almost_chordal(wg, req)
        assert res.contraction_edges == ((48, 49), (52, 53), (56, 57))
        assert res.partition.deviation == 24
        self.assert_within_bound(wg, req, res)

    def test_forced_merge_sweep(self):
        rng = random.Random(4401)
        reached, misses = set(), 0
        for k in range(2, 7):
            solves = 0
            while solves < 60:
                inst = forced_merge_instance(rng, k)
                if inst is None:
                    continue
                wg, req = inst
                res = gl_partition_almost_chordal(wg, req)
                self.assert_within_bound(wg, req, res)
                reached.add(len(res.contracted_terminals))
                misses += res.partition.deviation >= 2 * wg.w_max
                solves += 1
        # every k' from 2 to 6 is reached, and past 3 some solves miss the
        # double window
        assert reached == {2, 3, 4, 5, 6} and misses


class TestUncheckedNonMembers:
    """Without checks a non-member's catalog is read off its atoms, as a
    member's is; the whole-graph walk must end every solve the same way.
    A planted defect leaves every 4-cycle in a ring + Q atom, so random
    graphs bring atoms with 4-cycles that are walked."""

    @staticmethod
    def _graphs(kind, rng):
        if kind == "gnp":
            for _ in range(12):
                n, p = rng.randint(8, 30), rng.choice((0.15, 0.3, 0.5))
                yield random_gnp(rng, n, p), rng.choice((2, 3))
            return
        for k in (3, 4):
            for seed in range(3):
                yield planted(generate_almost_chordal(40, k, 4, seed=seed), k, kind), k

    @pytest.mark.parametrize("kind,ends", [
        pytest.param("hole", {"PipelineInvariantError"}, id="hole"),
        pytest.param("house", {"SolverStallError", "solved"}, id="house"),
        pytest.param("c4-overlap", {"PreconditionError", "SolverStallError",
                                    "solved"}, id="c4-overlap"),
        pytest.param("separator", {"solved"}, id="separator"),
        pytest.param("gnp", {"PipelineInvariantError", "PreconditionError",
                             "SolverStallError"}, id="gnp"),
    ])
    def test_atoms_end_as_the_walk(self, monkeypatch, kind, ends):
        def walked(g):
            g._memo.setdefault("c4", _build_catalog(g))
            return enumerate_induced_c4(g)

        rng = random.Random(kind)
        outcomes = set()
        for g, k in self._graphs(kind, rng):
            cycles = all_pairs_induced_c4(g)
            for trial in range(6):
                req = random_request(rng, g.n, k, min_demand=1 + trial % 2)
                if trial >= 3 and cycles:  # two terminals opposite on a ring
                    ring = cycles[-1]
                    off = [v for v in g.vertices() if v not in ring]
                    req = PartitionRequest(
                        (*ring[0::2], *rng.sample(off, k - 2)), req.demands)

                def run(wg):
                    return error_or(lambda: solve(
                        wg, req, mode="almost-chordal", validate=False))

                fresh = run(WeightedGraph.unit(Graph(g.adj)))
                # the old path: the input's memo seeded by the walk, and
                # the peeled and chorded graphs walked as well
                old = Graph(g.adj)
                old._memo["c4"] = _build_catalog(old)
                with monkeypatch.context() as m:
                    m.setattr(almost_chordal, "enumerate_induced_c4", walked)
                    m.setattr(almost_chordal, "induced_catalog",
                              lambda g, sub, fwd: None)
                    reference = run(WeightedGraph.unit(old))
                assert fresh == reference, (kind, g.n, k, req)
                failed = isinstance(fresh[0], type)
                outcomes.add(fresh[0].__name__ if failed else "solved")
        assert outcomes == ends


class TestPeeledCatalog:
    """The peeled graph reads its catalog off the input's: the cycles that
    avoid the peeled terminals, relabelled. Each must equal the walk of the
    peeled graph itself."""

    @pytest.fixture
    def peeled_catalogs(self, monkeypatch):
        """A list that gains (vertex count, cycle count) for each peeled
        graph, after its catalog is checked against the walk."""
        seen = []
        original = almost_chordal.induced_catalog

        def checked(g, sub, fwd):
            original(g, sub, fwd)
            catalog = enumerate_induced_c4(sub)  # what the memo holds
            assert catalog == _build_catalog(sub), (g, sorted(fwd))
            seen.append((sub.n, len(catalog)))

        monkeypatch.setattr(almost_chordal, "induced_catalog", checked)
        return seen

    def test_shared_vertex_members(self, peeled_catalogs):
        rng = random.Random(4201)
        for k in (3, 4):
            for seed in range(4):
                g = shared_vertex_member(40, k, 4, 3, seed)
                for validate in (True, False):
                    # one or two terminals of demand 1, the first on a ring
                    on_ring = list(rng.choice(enumerate_induced_c4(g)))
                    terms = rng.sample(on_ring, 2) + rng.sample(
                        [v for v in g.vertices() if v not in on_ring], k - 2)
                    ones = rng.randint(1, k - 2)
                    demands = [1] * ones + [2] * (k - 1 - ones)
                    req = PartitionRequest(tuple(terms),
                                           (*demands, g.n - sum(demands)))
                    res = gl_partition_almost_chordal(
                        WeightedGraph.unit(Graph(g.adj)), req, validate=validate)
                    assert len(res.peeled) == ones
                    # the peeled ring vertex takes its rings with it
                    assert 0 < peeled_catalogs[-1][1] < len(enumerate_induced_c4(g))
        assert len(peeled_catalogs) == 16

    def test_planted_without_checks(self, peeled_catalogs):
        rng = random.Random(4202)
        ends = set()
        for kind in ("hole", "house", "c4-overlap", "separator"):
            for k in (3, 4):
                g = planted(generate_almost_chordal(40, k, 4, seed=k), k, kind)
                for _ in range(3):
                    req = random_request(rng, g.n, k, min_demand=2)
                    req = PartitionRequest(
                        req.terminals, (1, *req.demands[1:-1],
                                        req.demands[0] + req.demands[-1] - 1))
                    got = error_or(lambda: solve(
                        WeightedGraph.unit(Graph(g.adj)), req,
                        mode="almost-chordal", validate=False))
                    ends.add(got[0].__name__ if isinstance(got[0], type) else "solved")
        assert len(peeled_catalogs) == 24
        assert ends == {"solved", "SolverStallError", "PipelineInvariantError",
                        "PreconditionError"}
