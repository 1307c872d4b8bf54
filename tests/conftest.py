"""Shared fixtures: small named graphs used across the suite, and spies on
the per-edge hole search and the connectivity flow."""

from __future__ import annotations

import pytest

from glpart import Graph, connectivity, recognition

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
