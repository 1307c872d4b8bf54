"""glpart against networkx, an independent reference, at sizes the brute
force in ``bruteforce.py`` cannot reach.

Over class members, shared-vertex members, each of the four planted
defects, random graphs with n = 20..50 and a few chordal graphs:

- ``vertex_connectivity_at_least(g, k)`` for k = 1..5 agrees with
  ``nx.node_connectivity``, and each rejection's separator leaves its pair
  in different components of the networkx graph and is a minimum cut
  between them: its size is ``nx.node_connectivity(h, s, t)``;
- ``mcs_search(g).witness is None`` agrees with ``nx.is_chordal``;
- ``enumerate_induced_c4(g)``, as vertex sets, is the set of length-4
  cycles of ``nx.chordless_cycles(h, length_bound=4)``.

networkx is imported plainly: without it this module fails to collect
rather than skipping.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from glpart import (
    Graph,
    generate_almost_chordal,
    generate_ktree,
    vertex_connectivity_at_least,
)
from glpart.c4 import enumerate_induced_c4
from glpart.chordal import mcs_search

from bruteforce import planted, random_chordal, random_gnp, shared_vertex_member

KINDS = ("house", "c4-overlap", "hole", "separator")


def _graphs() -> list[tuple[str, Graph]]:
    members = [(f"member-{n}-{k}", k, generate_almost_chordal(n, k, n // 15, n + k))
               for n in (30, 60, 100) for k in (2, 3, 4)]
    graphs = [(name, g) for name, _, g in members]
    graphs += [(f"{name}-{kind}", planted(g, k, kind))
               for name, k, g in members for kind in KINDS]
    graphs += [(f"shared-{n}-{k}", shared_vertex_member(n, k, n // 15, 3, n))
               for n, k in ((30, 2), (60, 3), (90, 4))]
    rng = random.Random(12)
    for i in range(10):
        n, p = rng.randint(20, 50), rng.choice((0.1, 0.2, 0.4))
        graphs.append((f"gnp-{i}", random_gnp(rng, n, p)))
    graphs += [(f"ktree-{n}-{k}", generate_ktree(n, k, n)) for n, k in ((40, 3), (80, 5))]
    for i in range(2):
        graphs.append((f"chordal-{i}", random_chordal(rng, rng.randint(20, 50))))
    return graphs


GRAPHS = _graphs()


def _nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges())
    return h


def test_families_are_all_there():
    assert len(GRAPHS) == 62
    chordal = sum(nx.is_chordal(_nx(g)) for _, g in GRAPHS)
    assert 4 <= chordal <= 10


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_agrees_with_networkx(name, g):
    h = _nx(g)
    assert (mcs_search(g).witness is None) == nx.is_chordal(h)
    kappa = nx.node_connectivity(h)
    for k in range(1, 6):
        res = vertex_connectivity_at_least(g, k)
        assert bool(res) == (kappa >= k), k
        if res.witness is not None:
            s, t = res.witness.separated_pair
            rest = h.subgraph(set(h).difference(res.witness.separator))
            assert len(res.witness.separator) < k
            assert not nx.has_path(rest, s, t)
            assert nx.node_connectivity(h, s, t) == len(res.witness.separator)


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_catalog_matches_networkx_chordless_cycles(name, g):
    # four vertices hold at most one induced 4-cycle, so vertex sets suffice
    ours = [frozenset(c) for c in enumerate_induced_c4(g)]
    theirs = {
        frozenset(c)
        for c in nx.chordless_cycles(_nx(g), length_bound=4)
        if len(c) == 4
    }
    assert len(set(ours)) == len(ours)
    assert set(ours) == theirs
