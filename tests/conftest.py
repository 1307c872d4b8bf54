"""Shared fixtures: small named graphs used across the suite, spies on
the per-edge hole search and the connectivity flow, and a guard that
rebuilds every neighbour set in another insertion order."""

from __future__ import annotations

import sys

import pytest

from glpart import (
    Graph,
    Instance,
    WeightedGraph,
    connectivity,
    graph,
    instances,
    recognition,
)

from bruteforce import complete_graph, cycle_graph, path_graph


@pytest.fixture
def hole_calls(monkeypatch):
    """A list that gains (vertex count, b, c) for each per-edge hole search."""
    calls: list[tuple[int, int, int]] = []
    original = recognition._hole_at_edge

    def spy(adj, b, c):
        calls.append((len(adj), b, c))
        return original(adj, b, c)

    monkeypatch.setattr(recognition, "_hole_at_edge", spy)
    return calls


@pytest.fixture
def flow_sizes(monkeypatch):
    """A list that gains the vertex count of each flow graph."""
    sizes: list[int] = []
    original = connectivity._flow_connectivity

    def spy(g, k):
        sizes.append(g.n)
        return original(g, k)

    monkeypatch.setattr(connectivity, "_flow_connectivity", spy)
    return sizes


@pytest.fixture
def scrambled_sets(monkeypatch):
    """Every graph that ``parse_instance``, ``Graph.from_edges``,
    ``contract_matching``, ``induced_subgraph`` or ``Graph.with_edges``
    builds comes back with each neighbour set rebuilt in descending id
    order. A frozenset iterates in an order that depends on how its
    elements went in, so output that reads that order changes under this
    fixture. It fails at teardown unless some set iterated differently."""
    differs: list[bool] = []

    def scramble(g: Graph) -> Graph:
        adj = tuple(frozenset(sorted(s, reverse=True)) for s in g.adj)
        differs.append(any(list(a) != list(b) for a, b in zip(adj, g.adj)))
        return Graph(adj)

    def first_scrambled(fn):
        def wrapped(*args):
            g, other = fn(*args)
            return scramble(g), other
        return wrapped

    def parse(text):
        inst = parse_original(text)
        return Instance(WeightedGraph(scramble(inst.graph), inst.wgraph.weights),
                        inst.request)

    parse_original = instances.parse_instance
    swaps = {
        parse_original: parse,
        graph.contract_matching: first_scrambled(graph.contract_matching),
        graph.induced_subgraph: first_scrambled(graph.induced_subgraph),
    }
    for name, module in list(sys.modules.items()):
        if name.startswith("glpart"):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in swaps:
                    monkeypatch.setattr(module, attr, swaps[value])
    from_edges, with_edges = Graph.from_edges.__func__, Graph.with_edges
    monkeypatch.setattr(Graph, "from_edges", classmethod(
        lambda cls, n, edges: scramble(from_edges(cls, n, edges))))
    monkeypatch.setattr(Graph, "with_edges",
                        lambda self, extra: scramble(with_edges(self, extra)))
    yield
    assert any(differs), "no neighbour set changed its iteration order"


@pytest.fixture
def c4() -> Graph:
    return cycle_graph(4)


@pytest.fixture
def c5() -> Graph:
    return cycle_graph(5)


@pytest.fixture
def house() -> Graph:
    # body 0-1-2-3, roof 4 over the adjacent pair (2, 3)
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (3, 4)])


@pytest.fixture
def domino() -> Graph:
    # two induced C4 glued along the edge (1, 2)
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 2)])


@pytest.fixture
def double_house() -> Graph:
    # two C4 sharing vertex 0, plus the edge (1, 4) between its neighbors
    return Graph.from_edges(
        7,
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0), (1, 4)],
    )


@pytest.fixture
def w4() -> Graph:
    # rim 0-1-2-3, hub 4
    return Graph.from_edges(
        5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]
    )


@pytest.fixture
def w5() -> Graph:
    # rim 0-4, hub 5
    rim = [(i, (i + 1) % 5) for i in range(5)]
    return Graph.from_edges(6, rim + [(5, i) for i in range(5)])


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)


@pytest.fixture
def k5() -> Graph:
    return complete_graph(5)


@pytest.fixture
def p4() -> Graph:
    return path_graph(4)


@pytest.fixture
def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)
