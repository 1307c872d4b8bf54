"""Chordality testing and perfect elimination orderings.

The ordering is produced by maximum cardinality search and certified by the
standard one-pass check: for every vertex, its later neighbors minus the
earliest of them must all be adjacent to that earliest one. A failure of the
check yields two later neighbors with no edge between them, which lie on a
chordless cycle of length at least four.

``mcs_order`` and ``compute_peo`` keep their results in the graph's memo,
so every caller that needs the order of a graph (the CLI's auto mode, the
solver, the connectivity check and its elimination-game fill) shares one
search.
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
    """Maximum cardinality search elimination order, kept in the graph's memo.

    Vertices are selected by descending count of already-selected neighbors,
    ties broken by smallest id; the elimination order is the reverse of the
    selection order. On chordal inputs this is a perfect elimination order.
    """
    memo = g._memo
    if "mcs" not in memo:
        memo["mcs"] = _build_mcs_order(g)
    return memo["mcs"]


def _build_mcs_order(g: Graph) -> tuple[int, ...]:
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
    peo = Peo.from_order(order)
    if peo.n != g.n:
        raise ValueError("order must be a permutation of 0..n-1")
    return _violation(g, peo)


def _violation(g: Graph, peo: Peo) -> ChordalityWitness | None:
    sigma = peo.sigma
    for v in peo.order:
        later = [u for u in g.adj[v] if sigma[u] > sigma[v]]
        if len(later) < 2:
            continue
        u = min(later, key=sigma.__getitem__)
        for w in later:
            if w != u and w not in g.adj[u]:
                return ChordalityWitness(v, (u, w))
    return None


def compute_peo(g: Graph) -> Peo | ChordalityWitness:
    """Perfect elimination order of a chordal graph, or a witness against one.

    Deterministic: ties in the search are broken by smallest vertex id, so
    equal inputs always yield the same order. The result is kept in the
    graph's memo.
    """
    memo = g._memo
    if "peo" not in memo:
        memo["peo"] = _build_peo(g)
    return memo["peo"]


def _build_peo(g: Graph) -> Peo | ChordalityWitness:
    peo = Peo.from_order(mcs_order(g))
    return _violation(g, peo) or peo
