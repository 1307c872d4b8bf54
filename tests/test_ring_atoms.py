"""Ring + Q atoms stand in for the catalog walk, the hole search and the flow.

``clique_decomposition`` marks each non-complete atom that is one induced
4-cycle joined to a clique Q seeing all of it. When every atom is such,
``class_violation`` takes the rings as the graph's 4-cycle catalog and runs
no hole search, and ``vertex_connectivity_at_least`` reads each atom's
connectivity, |Q| + 2, without flow. Each test here compares both with a
reference that takes no shortcut: the catalog walked from scratch, the
catalog scans plus a whole-graph hole search, and brute-force
connectivity.
"""

from __future__ import annotations

import random

import pytest

from glpart import (
    ClassViolation,
    Graph,
    class_violation,
    generate_almost_chordal,
    mcs_search,
    vertex_connectivity_at_least,
)
from glpart.c4 import _build_catalog, enumerate_induced_c4
from glpart.connectivity import clique_decomposition
from glpart.graph import induced_subgraph
from glpart.recognition import scan_catalog_violations

from bruteforce import (
    bf_vertex_connectivity,
    planted,
    random_gnp,
    whole_graph_find_hole,
)

KINDS = ("hole", "house", "c4-overlap", "separator")


def reference_check(g: Graph) -> ClassViolation | None:
    """The catalog scans on a catalog walked from scratch, then a
    whole-graph hole search."""
    violation = scan_catalog_violations(g, _build_catalog(g))
    hole = None if violation else whole_graph_find_hole(g)
    if hole:
        violation = ClassViolation(
            "hole", hole, f"chordless cycle of length {len(hole)}")
    return violation


def random_graphs():
    rng = random.Random(1801)
    return [random_gnp(rng, rng.randint(4, 11), p)
            for p in (0.3, 0.45, 0.6, 0.75) for _ in range(80)]


def member_family():
    """Members with k = 2..4, each also peeled of a base vertex, chorded
    across its first ring, and with each planted defect."""
    graphs = []
    for k in (2, 3, 4):
        for seed in range(4):
            cycles = 1 + seed % 2
            member = generate_almost_chordal(k + 1 + 4 * cycles + seed % 3, k,
                                             cycles, seed)
            p, _, r, _ = enumerate_induced_c4(Graph(member.adj))[0]
            graphs += [
                member,
                induced_subgraph(member, range(1, member.n))[0],
                member.with_edges([(p, r)]),
            ]
            graphs += [planted(member, k, kind) for kind in KINDS]
    return graphs


def ring_path(g: Graph) -> bool:
    """True when g is non-chordal and every atom it hands out is ring + Q."""
    return mcs_search(g).witness is not None and all(
        a.ring for a in clique_decomposition(g)[0])


@pytest.mark.parametrize("family, least", [
    (random_graphs, 40),
    (member_family, 40),
], ids=["gnp", "members"])
class TestAgainstReference:
    def test_verdict_and_witness(self, family, least):
        taken = 0
        for g in family():
            assert class_violation(g) == reference_check(g), g
            taken += ring_path(g)
        assert taken >= least

    def test_memoized_catalog(self, family, least):
        for g in family():
            class_violation(g)
            assert enumerate_induced_c4(g) == _build_catalog(g), g

    def test_connectivity(self, family, least):
        shortcut = 0
        for g in family():
            kappa = bf_vertex_connectivity(g)
            for k in range(1, 6):
                assert bool(vertex_connectivity_at_least(g, k)) == (kappa >= k), (g, k)
                # accepted off the rings alone, with no flow
                shortcut += k >= 3 and kappa >= k and ring_path(g)
        assert shortcut >= 10
