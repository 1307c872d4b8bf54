"""Connected partition solvers on chordal inputs, exact and weighted."""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from glpart import (
    DemandError,
    DeviationRule,
    GlpartError,
    Graph,
    Instance,
    PartitionRequest,
    PipelineInvariantError,
    PreconditionError,
    SolverStallError,
    WeightedGraph,
    generate_almost_chordal,
    generate_ktree,
    load_instance,
    solve,
    verify_partition,
)

from glpart.almost_chordal import gl_partition_almost_chordal
from glpart.cli import main
from glpart.connectivity import _flow_connectivity
from glpart.partition import (
    check_demands,
    gl_partition_chordal,
    gl_partition_chordal_weighted,
)

from bruteforce import (
    bf_grow_chordal_weighted,
    bf_is_connected,
    complete_graph,
    path_graph,
    planted,
    random_chordal,
    random_gnp,
    save_instance,
    shared_vertex_member,
)
from test_golden_cli import CORPUS
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
        g = complete_graph(4)
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
        g = complete_graph(5)
        req = PartitionRequest((4, 1), (2, 3))
        part = gl_partition_chordal(g, req)
        assert 4 in part.parts[0] and 1 in part.parts[1]
        assert len(part.parts[0]) == 2 and len(part.parts[1]) == 3

    def test_demand_sum_mismatch(self):
        g = complete_graph(4)
        with pytest.raises(DemandError):
            gl_partition_chordal(g, PartitionRequest((0, 1), (2, 3)))

    def test_terminal_past_n(self):
        wg = WeightedGraph.unit(complete_graph(4))
        with pytest.raises(DemandError) as err:
            check_demands(wg, PartitionRequest((0, 4), (2, 2)))
        assert str(err.value) == "terminal 4 out of range"

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
            part = gl_partition_chordal_weighted(wg, req)
            rep = verify_partition(wg, req, part, DeviationRule.window(wg.w_max))
            assert rep.ok, rep.first_violation

    def test_overweight_terminal_rejected_by_default(self):
        g = complete_graph(4)
        wg = WeightedGraph(g, (9, 1, 1, 1))
        # part 0 must end strictly below 1 + w_max = 10, but w(t0) = 9
        # forces it to [9, 9]; demand 1 cannot be met inside the window
        req = PartitionRequest((0, 1), (1, 11))
        with pytest.raises(DemandError):
            gl_partition_chordal_weighted(wg, req)

    def test_overweight_terminal_relaxation(self):
        g = complete_graph(4)
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
        part = gl_partition_chordal_weighted(wg, req)
        rep = verify_partition(wg, req, part, DeviationRule.window(wg.w_max))
        assert rep.ok, rep.first_violation


class TestArmedInvariants:
    """The slack check runs on every solve: shrinking w_max to 1 leaves a
    window that only exact closes fit, so it must fire on most weighted
    k-trees and stay silent only where every part is exact."""

    @staticmethod
    def instances():
        for seed in range(50):
            rng = random.Random(seed)
            k = rng.randint(2, 4)
            g = generate_ktree(40, k, seed)
            wg = WeightedGraph(g, tuple(rng.randint(1, 5) for _ in range(40)))
            yield wg, weighted_request(rng, wg, k)

    def test_shrunk_window_fires(self, monkeypatch):
        monkeypatch.setattr(WeightedGraph, "w_max", property(lambda self: 1))
        fired = 0
        for wg, req in self.instances():
            try:
                part = gl_partition_chordal_weighted(wg, req, validate=False)
            except PipelineInvariantError as exc:
                assert "slack" in str(exc)
                fired += 1
            else:
                assert part.deviation == 0
        assert fired >= 25

    def test_cli_exits_1_without_traceback(self, monkeypatch, tmp_path, capsys):
        # an inexact part means some close left the shrunk window
        wg, req = next(
            (wg, req) for wg, req in self.instances()
            if gl_partition_chordal_weighted(wg, req, validate=False).deviation
        )
        monkeypatch.setattr(WeightedGraph, "w_max", property(lambda self: 1))
        path = str(tmp_path / "inst.txt")
        save_instance(Instance(wg, req), path)
        assert main(["partition", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: closed-part weight slack")
        assert len(captured.err.splitlines()) == 1


def outcome(solver, wg: WeightedGraph, req: PartitionRequest, **kwargs):
    """The parts as sorted lists and the deviation, or the error's type and text."""
    try:
        part = solver(wg, req, **kwargs)
    except GlpartError as exc:
        return type(exc), str(exc)
    return [sorted(p) for p in part.parts], part.deviation


def same_as_reference(wg: WeightedGraph, req: PartitionRequest, **kwargs):
    got = outcome(gl_partition_chordal_weighted, wg, req, **kwargs)
    assert got == outcome(bf_grow_chordal_weighted, wg, req, **kwargs)
    return got


def some_weights(rng: random.Random, n: int, weighted: bool) -> tuple[int, ...]:
    return tuple(rng.randint(1, 9) if weighted else 1 for _ in range(n))


class TestMatchesReference:
    """The growth loop on bit masks returns exactly what the loop on
    per-vertex part sets in ``bruteforce`` returns, errors included."""

    def test_ktrees(self):
        rng = random.Random(24)
        for k in range(2, 7):
            for n in (k + 2, 40, 300, 2000):
                for weighted in (False, True):
                    g = generate_ktree(n, k, rng.randrange(2**32))
                    wg = WeightedGraph(g, some_weights(rng, n, weighted))
                    req = weighted_request(rng, wg, k)
                    got = same_as_reference(wg, req, validate=n <= 300)
                    assert got[1] < wg.w_max

    def test_overweight_terminals(self):
        rng = random.Random(25)
        for _ in range(60):
            k = rng.randint(2, 5)
            n = rng.randint(k + 2, 120)
            wg = WeightedGraph(generate_ktree(n, k, rng.randrange(2**32)),
                               some_weights(rng, n, True))
            terms = rng.sample(range(n), k)
            # a demand below its terminal's weight for about half the parts
            demands = [rng.randint(1, wg.weights[t]) if rng.random() < 0.5
                       else wg.weights[t] for t in terms]
            rem = wg.total_weight() - sum(demands)
            for _ in range(rem):
                demands[rng.randrange(k)] += 1
            req = PartitionRequest(tuple(terms), tuple(demands))
            same_as_reference(wg, req, allow_overweight_terminals=True)
            same_as_reference(wg, req, validate=False,
                              allow_overweight_terminals=True)
            # without the relaxation both reject the same terminal
            same_as_reference(wg, req)

    def test_overweight_seed_exempts_the_slack_check(self):
        # parts 0 and 1 start 4 over, so the slack starts at -8, outside
        # (-5, 5); only the exemption lets the solve finish
        wg = WeightedGraph(complete_graph(10), (5, 5) + (1,) * 8)
        req = PartitionRequest((0, 1, 2, 3), (1, 1, 12, 4))
        got = same_as_reference(wg, req, allow_overweight_terminals=True)
        assert got == ([[0], [1], [2, 4, 5, 6], [3, 7, 8, 9]], 8)

    def test_unvalidated_small_graphs_stall_alike(self):
        rng = random.Random(26)
        stalls = 0
        for _ in range(400):
            n = rng.randint(2, 14)
            g = random_gnp(rng, n, rng.choice((0.2, 0.35, 0.5, 0.8)))
            wg = WeightedGraph(g, some_weights(rng, n, rng.random() < 0.5))
            req = weighted_request(rng, wg, rng.randint(2, min(n, 5)))
            got = same_as_reference(wg, req, validate=False)
            stalls += got[0] is SolverStallError
        assert stalls >= 50

    def test_many_terminals_on_sparse_chordal_graphs(self):
        rng = random.Random(27)
        stalls = 0
        for trial in range(40):
            n = rng.randint(8, 400)
            g = (generate_ktree(n, 2, rng.randrange(2**32)) if trial % 2
                 else random_chordal(rng, n))
            wg = WeightedGraph(g, some_weights(rng, n, trial % 4 < 2))
            req = weighted_request(rng, wg, rng.randint(2, n // 2))
            got = same_as_reference(wg, req, validate=False)
            stalls += got[0] is SolverStallError
        assert 0 < stalls < 40

    def test_last_part_takes_the_rest(self):
        # a demand equal to its terminal's weight closes that part before
        # the loop runs, so the last open part takes every unassigned
        # vertex at the end: connected along unassigned vertices, or a
        # stall when some of them hang off a closed part only
        path = WeightedGraph.unit(path_graph(5))
        for terminals, stalls in [((0, 1), False), ((4, 0), False),
                                  ((2, 4), True), ((2, 0), True)]:
            req = PartitionRequest(terminals, (1, 4))
            got = same_as_reference(path, req, validate=False)
            assert (got[0] is SolverStallError) is stalls, terminals
        # every part but one closes within a few picks, often on a vertex
        # that cuts the rest off
        rng = random.Random(28)
        stalls = 0
        for _ in range(300):
            n = rng.randint(4, 30)
            g = random_gnp(rng, n, rng.choice((0.1, 0.2, 0.4)))
            wg = WeightedGraph(g, some_weights(rng, n, rng.random() < 0.5))
            k = rng.randint(2, min(n - 1, 4))
            terms = rng.sample(range(n), k)
            demands = [wg.weights[t] + rng.randint(0, 2) for t in terms[1:]]
            demands.insert(0, wg.total_weight() - sum(demands))
            if demands[0] < wg.weights[terms[0]]:
                continue
            got = same_as_reference(wg, PartitionRequest(tuple(terms), tuple(demands)),
                                    validate=False)
            stalls += got[0] is SolverStallError
        assert stalls >= 30

    def test_shrunk_window(self, monkeypatch):
        monkeypatch.setattr(WeightedGraph, "w_max", property(lambda self: 1))
        fired = 0
        for wg, req in TestArmedInvariants.instances():
            got = same_as_reference(wg, req, validate=False)
            fired += got[0] is PipelineInvariantError
        assert fired >= 25


def solve_cases(tmp_path) -> list[tuple[str, bool, WeightedGraph, PartitionRequest]]:
    """(name, whether the graph is chordal, weighted graph, request): the
    golden corpus, members whose rings share vertices, and a member with
    each planted defect."""
    cases = []
    for name, flags in CORPUS:
        path = str(tmp_path / f"{name}.txt")
        assert main(["generate", *flags, "--out", path]) == 0
        inst = load_instance(path)
        cases.append((name, name.startswith("ktree"), inst.wgraph, inst.request))
    rng = random.Random(28)
    for seed in (1, 2):
        g = shared_vertex_member(36, 3, 3, 2, seed)
        wg = WeightedGraph(g, some_weights(rng, g.n, seed == 2))
        cases.append((f"shared-{seed}", False, wg, weighted_request(rng, wg, 3, True)))
    member = generate_almost_chordal(40, 3, 4, seed=21)
    for kind in ("hole", "house", "c4-overlap", "separator"):
        g = planted(member, 3, kind)
        cases.append((kind, False, WeightedGraph.unit(g), random_request(rng, g.n, 3, 2)))
    return cases


def fresh(wg: WeightedGraph) -> WeightedGraph:
    """The same weighted graph with an empty certificate memo."""
    return WeightedGraph(Graph(wg.graph.adj), wg.weights)


def error_or(call):
    """What ``call`` returns, or the type, text and witness of its error."""
    try:
        return call()
    except GlpartError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def direct(wg: WeightedGraph, req: PartitionRequest, chordal: bool, validate: bool):
    """What ``solve`` should return, by calling the chosen solver itself."""
    if chordal:
        part = gl_partition_chordal_weighted(wg, req, validate=validate)
        unit = all(w == 1 for w in wg.weights)
        return part, "chordal-exact" if unit else "chordal-weighted", None
    result = gl_partition_almost_chordal(wg, req, validate=validate)
    return result.partition, "almost-chordal", result


class TestSolve:
    """``solve`` returns what a direct call of the solver its mode picks
    returns, errors and their witnesses included."""

    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("mode", ["auto", "chordal", "almost-chordal"])
    def test_matches_direct_calls(self, tmp_path, mode, validate):
        errors = 0
        for name, chordal, wg, req in solve_cases(tmp_path):
            use_chordal = chordal if mode == "auto" else mode == "chordal"
            got = error_or(lambda: solve(fresh(wg), req, mode=mode, validate=validate))
            want = error_or(lambda: direct(fresh(wg), req, use_chordal, validate))
            assert got == want, name
            errors += isinstance(got[0], type)
        # validated, the pipeline rejects the four planted defects and the
        # chordal solve every non-chordal graph; unvalidated, the pipeline
        # still fails on the planted hole and 4-cycle overlap
        pipeline = 4 if validate else 2
        assert errors == {"auto": pipeline, "almost-chordal": pipeline,
                          "chordal": 8 if validate else 0}[mode]

    @pytest.mark.parametrize("mode", ["exact", "Auto", "", "almost_chordal"])
    def test_unknown_mode(self, mode):
        g = generate_ktree(8, 2, 0)
        with pytest.raises(ValueError, match="unknown mode"):
            solve(WeightedGraph.unit(g), PartitionRequest((0, 1), (4, 4)), mode=mode)
