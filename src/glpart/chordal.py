"""Chordality testing and perfect elimination orderings.

The ordering is produced by maximum cardinality search and certified by the
standard one-pass check: for every vertex, its later neighbors minus the
earliest of them must all be adjacent to that earliest one. A failure of the
check yields two later neighbors with no edge between them, which lie on a
chordless cycle of length at least four.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class Peo:
    """A vertex order with 1-based positions.

    ``order[i]`` is the vertex at position i+1; ``sigma[v]`` is the position
    of v. The order is perfect-elimination when every vertex forms a clique
    with its later neighbors.
    """

    order: tuple[int, ...]
    sigma: tuple[int, ...]

    @classmethod
    def from_order(cls, order) -> "Peo":
        order = tuple(order)
        n = len(order)
        if sorted(order) != list(range(n)):
            raise ValueError("order must be a permutation of 0..n-1")
        sigma = [0] * n
        for i, v in enumerate(order):
            sigma[v] = i + 1
        return cls(order, tuple(sigma))

    @property
    def n(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class ChordalityWitness:
    """Evidence that a graph is not chordal.

    ``vertex`` has two later neighbors ``nonadjacent`` (relative to the
    attempted elimination order) that are not adjacent to each other; the
    three lie on a chordless cycle of length >= 4.
    """

    vertex: int
    nonadjacent: tuple[int, int]


def mcs_order(g: Graph) -> tuple[int, ...]:
    """Maximum cardinality search elimination order.

    Vertices are selected by descending count of already-selected neighbors,
    ties broken by smallest id; the elimination order is the reverse of the
    selection order. On chordal inputs this is a perfect elimination order.
    """
    n = g.n
    if n == 0:
        raise ValueError("graph must be non-empty")
    count = [0] * n
    selected = [False] * n
    # heap of (-count, vertex); stale entries are skipped on pop
    heap: list[tuple[int, int]] = [(0, v) for v in range(n)]
    heapq.heapify(heap)
    selection: list[int] = []
    while len(selection) < n:
        c, v = heapq.heappop(heap)
        if selected[v] or -c != count[v]:
            continue
        selected[v] = True
        selection.append(v)
        for u in g.adj[v]:
            if not selected[u]:
                count[u] += 1
                heapq.heappush(heap, (-count[u], u))
    return tuple(reversed(selection))


def peo_violation(g: Graph, order) -> ChordalityWitness | None:
    """Certify an elimination order, or return why it fails.

    Checks, for each vertex v, that the later neighbors of v other than the
    earliest one are all adjacent to that earliest one. Passing for every v
    is equivalent to the order being perfect-elimination.
    """
    order = tuple(order)
    n = g.n
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of 0..n-1")
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    for v in order:
        later = [u for u in g.adj[v] if pos[u] > pos[v]]
        if len(later) < 2:
            continue
        u = min(later, key=lambda x: pos[x])
        for w in later:
            if w != u and w not in g.adj[u]:
                return ChordalityWitness(v, (u, w))
    return None


def compute_peo(g: Graph) -> Peo | ChordalityWitness:
    """Perfect elimination order of a chordal graph, or a witness against one.

    Deterministic: ties in the search are broken by smallest vertex id, so
    equal inputs always yield the same order.
    """
    order = mcs_order(g)
    witness = peo_violation(g, order)
    if witness is not None:
        return witness
    return Peo.from_order(order)
