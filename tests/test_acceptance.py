"""Acceptance suite: one test (and one printed PASS line) per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines, or add ``-s`` to see the printed tallies.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass

import pytest

from glpart import (
    DeviationRule,
    Graph,
    Instance,
    PartitionRequest,
    WeightedGraph,
    brute_force_gl,
    enumerate_induced_c4,
    format_instance,
    generate_almost_chordal,
    generate_ktree,
    gl_partition_almost_chordal,
    gl_partition_chordal,
    gl_partition_chordal_weighted,
    is_hh_i42_free,
    vertex_connectivity_at_least,
    verify_partition,
)
from glpart.cli import main as cli_main

from bruteforce import (
    DOUBLE_HOUSE_EDGES,
    HOUSE_EDGES,
    bf_class_member,
    bf_is_chordal,
    bf_vertex_connectivity,
    build_c4_incidence,
    cycle_graph,
    enumerate_minimal_separators,
    is_chordal,
    universal_to,
)


def random_composition(rng, total, k, floors):
    """Distribute ``total`` over k slots, slot i at least floors[i]."""

    rem = total - sum(floors)
    if rem < 0:
        return None
    d = list(floors)
    for _ in range(rem):
        d[rng.randrange(k)] += 1
    return tuple(d)


def unit_request(rng, n, k):
    terms = tuple(rng.sample(range(n), k))
    return PartitionRequest(terms, random_composition(rng, n, k, [1] * k))


def test_criterion_1_chordal_exactness():
    rng = random.Random(101)
    rule = DeviationRule.exact()
    start = time.perf_counter()
    runs = 0
    for i in range(500):
        k = rng.randint(2, 6)
        n = rng.randint(k + 1, 60)
        g = generate_ktree(n, k, seed=i)
        req = unit_request(rng, n, k)
        res = gl_partition_chordal(g, req, validate=False)
        assert res.deviation == 0
        rep = verify_partition(WeightedGraph.unit(g), req, res, rule)
        assert rep.ok, rep.first_violation
        runs += 1
    elapsed = time.perf_counter() - start
    assert runs >= 500
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"[criterion 1] PASS: {runs} exact k-tree partitions verified "
          f"in {elapsed:.1f}s")


def weighted_request(rng, wg, k, extra=0):
    """Random demand vector with floors w(t)+extra; None if infeasible."""

    for _ in range(50):
        terms = tuple(rng.sample(range(wg.n), k))
        floors = [wg.weights[t] + extra for t in terms]
        demands = random_composition(rng, wg.total_weight(), k, floors)
        if demands is not None:
            return PartitionRequest(terms, demands)
    return None


def test_criterion_2_weighted_window():
    rng = random.Random(202)
    start = time.perf_counter()
    runs = 0
    while runs < 500:
        k = rng.randint(2, 6)
        n = rng.randint(max(k + 1, 2 * k), 60)
        g = generate_ktree(n, k, seed=runs)
        wg = WeightedGraph(g, tuple(rng.randint(1, 7) for _ in range(n)))
        req = weighted_request(rng, wg, k)
        if req is None:
            continue
        # every solve raises PipelineInvariantError if the closed parts'
        # slack leaves its window or the loop overruns its pass budget
        res = gl_partition_chordal_weighted(wg, req, validate=False)
        rule = DeviationRule.window(wg.w_max)
        rep = verify_partition(wg, req, res, rule)
        assert rep.ok, rep.first_violation
        runs += 1
    elapsed = time.perf_counter() - start
    print(f"[criterion 2] PASS: {runs} weighted partitions inside the "
          f"strict w_max window in {elapsed:.1f}s")


@dataclass
class MemberRun:
    g: Graph
    k: int
    req_unw: PartitionRequest
    res_unw: object
    wg: WeightedGraph
    req_w: PartitionRequest
    res_w: object


@pytest.fixture(scope="module")
def member_suite():
    """Shared corpus for criteria 3 and 4: 200 solved class members."""

    rng = random.Random(303)
    out = []
    seed = 0
    while len(out) < 200:
        k = rng.randint(2, 5)
        cycles = rng.randint(1, 6)
        lo = k + 1 + 4 * cycles
        if lo > 50:
            continue
        n = rng.randint(lo, 50)
        g = generate_almost_chordal(n, k, cycles, seed=seed)
        seed += 1

        # unweighted leg: demands >= 2 so no terminal is peeled and the
        # contraction accounting in criterion 4 stays one-to-one
        terms = tuple(rng.sample(range(n), k))
        req_unw = PartitionRequest(
            terms, random_composition(rng, n, k, [2] * k)
        )
        res_unw = gl_partition_almost_chordal(WeightedGraph.unit(g), req_unw)

        wg = WeightedGraph(g, tuple(rng.randint(1, 7) for _ in range(n)))
        req_w = weighted_request(rng, wg, k, extra=1)
        if req_w is None:
            continue
        res_w = gl_partition_almost_chordal(wg, req_w)
        out.append(MemberRun(g, k, req_unw, res_unw, wg, req_w, res_w))
    return out


def test_criterion_3_almost_chordal_deviation(member_suite):
    start = time.perf_counter()
    for run in member_suite:
        g = run.g
        assert run.res_unw.partition.deviation <= 1
        rep = verify_partition(
            WeightedGraph.unit(g),
            run.req_unw,
            run.res_unw.partition,
            DeviationRule.slack(1),
        )
        assert rep.ok, rep.first_violation

        rep_w = verify_partition(
            run.wg,
            run.req_w,
            run.res_w.partition,
            DeviationRule.window(2 * run.wg.w_max),
        )
        assert rep_w.ok, rep_w.first_violation
    elapsed = time.perf_counter() - start
    print(f"[criterion 3] PASS: {len(member_suite)} members, unweighted "
          f"deviation <= 1 and weighted 2*w_max window, checked in "
          f"{elapsed:.1f}s")


def test_criterion_4_pipeline_guards(member_suite):
    for run in member_suite:
        g = run.g
        n = g.n
        assert len(enumerate_induced_c4(g)) <= (n - 4) / 3 + 1
        for res, req in ((run.res_unw, run.req_unw), (run.res_w, run.req_w)):
            gg = res.contracted.graph
            assert is_chordal(gg)
            assert vertex_connectivity_at_least(gg, res.effective_k).connected
            assert res.effective_k == run.k

            g_prime = g.with_edges(res.added_chords)
            cat = enumerate_induced_c4(g_prime)
            assert len(res.contraction_edges) == len(cat)
            assert res.c4_count == len(cat)

            seen = set()
            for u, v in res.contraction_edges:
                assert v in g_prime.adj[u]
                assert u not in seen and v not in seen
                seen.update((u, v))

            terms = set(req.terminals)
            for grp in res.merge_groups:
                assert len(set(grp) & terms) <= 1
    print(f"[criterion 4] PASS: contraction guards held on "
          f"{2 * len(member_suite)} pipeline runs")


def test_criterion_5_oracle_equivalence():
    rng = random.Random(505)
    rule = DeviationRule.exact()
    start = time.perf_counter()
    for i in range(200):
        k = rng.randint(2, 4)
        n = rng.randint(max(k + 1, 6), 10)
        g = generate_ktree(n, k, seed=i)
        req = unit_request(rng, n, k)
        oracle = brute_force_gl(g, req)
        assert oracle is not None, (n, k, req)
        solved = gl_partition_chordal(g, req)
        rep = verify_partition(WeightedGraph.unit(g), req, solved, rule)
        assert rep.ok, rep.first_violation
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"[criterion 5] PASS: 200 oracle/solver agreements in "
          f"{elapsed:.1f}s")


def named_corpus():
    cyc = cycle_graph
    house = Graph.from_edges(5, HOUSE_EDGES)
    domino = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 2)]
    )
    double_house = Graph.from_edges(7, DOUBLE_HOUSE_EDGES)
    complete = lambda k: Graph.from_edges(
        k, list(itertools.combinations(range(k), 2))
    )
    wheel = lambda r: Graph.from_edges(
        r + 1, [(i, (i + 1) % r) for i in range(r)] + [(i, r) for i in range(r)]
    )
    return {
        "C4": cyc(4), "C5": cyc(5), "house": house, "domino": domino,
        "double-house": double_house, "K3": complete(3), "K4": complete(4),
        "K5": complete(5), "K6": complete(6), "W4": wheel(4), "W5": wheel(5),
    }


def test_criterion_6_recognition_correctness():
    graphs = list(named_corpus().items())
    rng = random.Random(606)
    for i in range(100):
        n = rng.randint(1, 9)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < rng.choice((0.25, 0.5, 0.75))]
        graphs.append((f"rand{i}", Graph.from_edges(n, edges)))

    checked = 0
    for name, g in graphs:
        assert is_chordal(g) == bf_is_chordal(g), name
        assert is_hh_i42_free(g).ok == bf_class_member(g), name
        kappa = bf_vertex_connectivity(g)
        for k in range(1, g.n + 1):
            assert vertex_connectivity_at_least(g, k).connected == (kappa >= k), (
                name, k)
        checked += 1
    print(f"[criterion 6] PASS: recognition matched brute force on "
          f"{checked} graphs")


def test_criterion_7_structural_lemmas():
    rng = random.Random(707)
    members = []
    for seed in range(40):
        k = rng.choice([2, 2, 3, 3, 4, 5, 5, 5, 5, 5])
        cycles = rng.randint(1, 2)
        lo = k + 1 + 4 * cycles
        if lo > 14:
            cycles = 1
            lo = k + 1 + 4
        n = rng.randint(lo, 14)
        members.append((generate_almost_chordal(n, k, cycles, seed=seed), k))

    violations = 0
    high_k = 0
    for g, k in members:
        cat = enumerate_induced_c4(g)

        for cyc in cat:
            univ = []
            for v in range(g.n):
                if v in cyc:
                    continue
                hits = sum(1 for u in cyc if u in g.adj[v])
                if hits >= 2 and not universal_to(g, v, cyc):
                    violations += 1
                if universal_to(g, v, cyc):
                    univ.append(v)
            for a, b in itertools.combinations(univ, 2):
                if b not in g.adj[a]:
                    violations += 1

            for a, b in ((cyc[0], cyc[2]), (cyc[1], cyc[3])):
                g2 = g.with_edges([(a, b)])
                if not is_hh_i42_free(g2).ok:
                    violations += 1
                if len(enumerate_induced_c4(g2)) != len(cat) - 1:
                    violations += 1

        if not build_c4_incidence(cat).is_forest:
            violations += 1

        if k >= 5 and cat:
            high_k += 1
            for sep in enumerate_minimal_separators(g):
                for cyc in cat:
                    if len(sep & set(cyc)) >= 3:
                        violations += 1

    assert high_k >= 5
    assert violations == 0
    print(f"[criterion 7] PASS: 0 lemma violations over {len(members)} "
          f"members ({high_k} with k >= 5)")


def test_criterion_8_runtime_scaling():
    def median_solve(n):
        g = generate_ktree(n, 3, seed=1)
        third = n // 3
        req = PartitionRequest(
            (0, third, 2 * third), (third, third, n - 2 * third)
        )
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            res = gl_partition_chordal(g, req, validate=False)
            times.append(time.perf_counter() - t0)
            assert res.deviation == 0
        return sorted(times)[1]

    t500 = median_solve(500)
    t1000 = median_solve(1000)
    ratio = t1000 / t500
    assert ratio <= 5.0, f"doubling n scaled time by {ratio:.2f}x"

    g = generate_almost_chordal(200, 3, 4, seed=8)
    rng = random.Random(808)
    terms = tuple(rng.sample(range(200), 3))
    req = PartitionRequest(terms, random_composition(rng, 200, 3, [2] * 3))
    t0 = time.perf_counter()
    res = gl_partition_almost_chordal(WeightedGraph.unit(g), req)
    prep = time.perf_counter() - t0
    assert prep < 30.0, f"n=200 pipeline took {prep:.1f}s"
    assert res.partition.deviation <= 1
    print(f"[criterion 8] PASS: 500->1000 ratio {ratio:.2f}x (<= 5x), "
          f"n=200 pipeline {prep:.2f}s (< 30s)")


def test_criterion_9_cli_determinism(tmp_path):
    def gen(name, extra):
        path = tmp_path / name
        args = ["generate", "--out", str(path)] + extra
        assert cli_main(args) == 0
        return str(path)

    ktree = gen("ktree.txt", ["--n", "20", "--k", "3", "--seed", "4"])
    member = gen(
        "member.txt",
        ["--n", "24", "--k", "2", "--cycles", "2", "--seed", "4",
         "--min-demand", "2"],
    )
    weighted = gen(
        "weighted.txt",
        ["--n", "18", "--k", "3", "--max-weight", "7", "--seed", "4"],
    )
    part_out = str(tmp_path / "part.json")
    assert cli_main(["partition", ktree, "--out", part_out]) == 0

    commands = [
        ["generate", "--n", "20", "--k", "3", "--seed", "4"],
        ["generate", "--n", "24", "--k", "2", "--cycles", "2", "--seed", "4"],
        ["check", ktree],
        ["check", member],
        ["partition", ktree],
        ["partition", member],
        ["partition", weighted],
        ["verify", ktree, part_out],
        ["oracle-compare", "--trials", "5", "--seed", "3", "--n-max", "9"],
    ]
    for idx, cmd in enumerate(commands):
        a = tmp_path / f"run{idx}a.json"
        b = tmp_path / f"run{idx}b.json"
        assert cli_main(cmd + ["--out", str(a)]) == 0, cmd
        assert cli_main(cmd + ["--out", str(b)]) == 0, cmd
        assert a.read_bytes() == b.read_bytes(), cmd
    print(f"[criterion 9] PASS: {len(commands)} CLI commands byte-identical "
          f"across repeat runs")
