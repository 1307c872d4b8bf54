"""Exhaustive small-scope checks over every connected graph of the atlas.

networkx ships "An Atlas of Graphs" (Read & Wilson, 1998): every graph
with at most 7 vertices, up to isomorphism. Sampled draws can miss a rare
shape; the small-scope hypothesis (Jackson, "Software Abstractions", 2006)
says most defects show on some small input, so each check here runs on
all of them. The class, chordality and connectivity of each graph come
from brute force and networkx, not from the library.

- Every unit request a chordal or member graph admits (k from 2 to its
  connectivity, every terminal set, every demand vector) is solved with
  checks on and verified: exact on chordal graphs, within one vertex on
  members. Each deviation-1 answer has an exact partition the oracle
  finds, so these cases are the yardstick for an exact member solve.
- A weighted subset (weight 2 on even ids, every member and every chordal
  graph of at most 6 vertices, every k, terminal set and demand vector
  covering each terminal's weight) stays inside the paper's windows:
  strictly within w_max on chordal graphs and within max(2, k' - 1) *
  w_max on members, k' being the parts left open after the peel.
- Requests that must be refused are refused with a witness that checks
  against its definition.
- The lemmas the member pipeline rests on hold on every non-chordal
  member: (a) each non-complete atom is ring + Q, (b) the search has one
  violator per atom, and (c') the chorded graph's order, with each
  merged group at its last member, is a perfect elimination order of the
  contracted graph.

Past the atlas, a fixed sample of ``tools/glued_sweep.py`` runs the
member, oracle, lemma and refusal checks on graphs of 8 to 12 vertices
glued from clique and ring + Q atoms.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest

from glpart import (
    ClassViolation,
    DeviationRule,
    Graph,
    PartitionRequest,
    PreconditionError,
    SeparatorWitness,
    WeightedGraph,
    mcs_search,
    solve,
    verify_partition,
    vertex_connectivity_at_least,
)
from glpart.connectivity import clique_decomposition
from glpart.graph import induced_subgraph

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import glued_sweep  # noqa: E402
from bruteforce import (  # noqa: E402
    _separates,
    bf_class_member,
    bf_gl_partition,
    bf_is_chordal,
    bf_ring_plus_q,
    check_violation,
    projected_order_violation,
)


def compositions(n: int, k: int):
    """Every k-tuple of positive integers summing to n."""
    for cut in combinations(range(1, n), k - 1):
        yield tuple(b - a for a, b in zip((0, *cut), (*cut, n)))


@pytest.fixture(scope="module")
def atlas():
    """Each connected atlas graph with its connectivity, and whether it is
    chordal and whether it is a class member."""
    graphs = []
    for a in nx.graph_atlas_g():
        if a.number_of_nodes() and nx.is_connected(a):
            g = Graph.from_edges(a.number_of_nodes(), a.edges())
            kappa = nx.node_connectivity(a)
            graphs.append((g, kappa, bf_is_chordal(g), bf_class_member(g)))
    assert len(graphs) == 996
    return graphs


@pytest.fixture(scope="module")
def sweep(atlas):
    """Every unit request on the chordal and member graphs, solved with
    checks on and verified; the outcome counts and the deviation-1 cases."""
    counts: Counter = Counter()
    inexact = []
    for g, kappa, chordal, member in atlas:
        if not (chordal or member):
            continue
        wg = WeightedGraph.unit(g)
        kind = "chordal" if chordal else "member"
        rule = DeviationRule.exact() if chordal else DeviationRule.slack(1)
        for k in range(2, kappa + 1):
            for terminals in combinations(g.vertices(), k):
                for demands in compositions(g.n, k):
                    req = PartitionRequest(terminals, demands)
                    try:
                        sol = solve(wg, req)
                    except PreconditionError:
                        counts[kind, "refused"] += 1
                        continue
                    part = sol.partition
                    assert (sol.mode == "chordal-exact") == chordal, (g.adj, req)
                    rep = verify_partition(wg, req, part, rule)
                    assert rep.ok, (g.adj, req, rep.first_violation)
                    counts[kind, part.deviation] += 1
                    if part.deviation:
                        inexact.append((g, req))
    return counts, inexact


def test_no_k_connected_member_is_refused(sweep):
    counts, _ = sweep
    assert counts == {
        ("chordal", 0): 26776,
        ("member", 0): 3676,
        ("member", 1): 267,
    }


def test_every_inexact_member_answer_has_an_exact_partition(sweep):
    _, inexact = sweep
    assert len(inexact) == 267
    for g, req in inexact:
        assert bf_gl_partition(g, req.terminals, req.demands), (g.adj, req)


def weighted_demands(weights, terminals):
    """Every demand vector summing to the total weight in which each
    terminal's demand is at least its own weight."""
    own = [weights[t] for t in terminals]
    for extra in compositions(sum(weights) - sum(own) + len(own), len(own)):
        yield tuple(w + x - 1 for w, x in zip(own, extra))


def test_weighted_requests_stay_in_their_windows(atlas):
    counts: Counter = Counter()
    for g, kappa, chordal, member in atlas:
        if not (g.n <= 6 if chordal else member):
            continue
        wg = WeightedGraph(g, tuple(2 - v % 2 for v in g.vertices()))
        for k in range(2, kappa + 1):
            for terminals in combinations(g.vertices(), k):
                for demands in weighted_demands(wg.weights, terminals):
                    req = PartitionRequest(terminals, demands)
                    sol = solve(wg, req)
                    part, mode = sol.partition, sol.mode
                    assert mode == ("chordal-weighted" if chordal else "almost-chordal")
                    # w_max is 2; k' counts the terminals that are not peeled
                    k_open = sum(d != wg.weights[t] for t, d in zip(terminals, demands))
                    bound = 2 if chordal else 2 * max(2, k_open - 1)
                    rep = verify_partition(wg, req, part, DeviationRule.window(bound))
                    assert rep.ok, (g.adj, req, rep.first_violation)
                    counts[mode, part.deviation] += 1
    assert counts == {
        ("chordal-weighted", 0): 3074,
        ("chordal-weighted", 1): 1940,
        ("almost-chordal", 0): 3676,
        ("almost-chordal", 1): 3749,
        ("almost-chordal", 2): 314,
    }


def check_separator(g: Graph, k: int, wit: SeparatorWitness) -> None:
    """Fewer than k vertices whose removal puts the pair apart."""
    cut = set(wit.separator)
    assert len(cut) < k
    assert _separates(g, cut, *wit.separated_pair)


def test_refusals_carry_checked_witnesses(atlas):
    """One request at k = kappa + 1 on each chordal or member graph, and
    one per k up to kappa + 1 on each non-member, with checks on. Besides,
    the connectivity check itself, on every graph at kappa and kappa + 1."""
    counts: Counter = Counter()
    for g, kappa, chordal, member in atlas:
        assert kappa == 0 or vertex_connectivity_at_least(g, kappa)
        res = vertex_connectivity_at_least(g, kappa + 1)
        assert not res
        if res.witness is not None:
            check_separator(g, kappa + 1, res.witness)
            counts["connectivity separator"] += 1
        else:
            assert g.is_complete()
        first = kappa + 1 if chordal or member else 2
        for k in range(max(first, 2), min(kappa + 1, g.n) + 1):
            demands = tuple(g.n // k + (i < g.n % k) for i in range(k))
            req = PartitionRequest(tuple(range(k)), demands)
            with pytest.raises(PreconditionError) as ei:
                solve(WeightedGraph.unit(g), req)
            wit = ei.value.witness
            if isinstance(wit, SeparatorWitness):
                check_separator(g, k, wit)
                counts["separator"] += 1
            elif isinstance(wit, ClassViolation):
                assert not (chordal or member)
                check_violation(g, wit)
                counts[wit.kind] += 1
            else:
                assert wit is None and g.is_complete()
                assert "has no separator" in str(ei.value)
                counts["complete"] += 1
    assert counts == {
        "connectivity separator": 989,
        "separator": 403,
        "complete": 6,
        "hole": 106,
        "house": 213,
        "c4-overlap": 833,
    }


def test_member_lemmas(atlas):
    members = [(g, kappa) for g, kappa, chordal, member in atlas
               if member and not chordal]
    assert len(members) == 56
    plans = k_connected = 0
    for g, kappa in members:
        atoms = clique_decomposition(g)[0]
        # (a) ring + Q, by the library's mark and by brute force
        for atom in atoms:
            assert atom.ring is not None, g.adj
            assert bf_ring_plus_q(induced_subgraph(g, atom.ids)[0]), g.adj
        # (b)
        assert len(mcs_search(g).violators) == len(atoms), g.adj
        # (c')
        for k in (2, 3):
            for terminals in combinations(g.vertices(), k):
                assert projected_order_violation(g, terminals) is None
                plans += 1
                k_connected += k <= kappa
    assert (plans, k_connected) == (2829, 356)


def test_glued_graphs_past_the_atlas():
    """A fixed sample of ``tools/glued_sweep.py``: graphs of 8 to 12
    vertices glued from clique and ring + Q atoms along cliques of at least
    k vertices. Members solve and verify, each deviation-1 answer has an
    exact partition, and lemmas (a) and (c') hold; each non-member that a
    ring edge in a glue makes is refused by ``check`` and by ``solve``
    with a witness that checks against its definition."""
    counts, failures = glued_sweep.sweep(seed=0, draws=150)
    assert failures == []
    assert counts == {
        "chordal": 50,
        "chordal deviation 0": 309,
        "member": 48,
        "member with several rings": 7,
        "member deviation 0": 280,
        "member deviation 1": 20,
        "exact partition found": 20,
        "(c') plans": 300,
        "ring edge in a glue": 56,
        "non-member house": 48,
        "non-member c4-overlap": 4,
    }
