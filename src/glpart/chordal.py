"""Chordality testing and perfect elimination orderings.

One maximum cardinality search orders, labels and certifies a graph in a
single pass (Tarjan & Yannakakis, SIAM J. Comput. 13(3), 1984). When a
vertex is selected, its neighbors selected before it, madj(v), are its
later neighbors in the elimination order; the last of them to be selected,
its parent, is the earliest. The order is perfect-elimination iff madj(v)
minus the parent lies inside the parent's neighborhood for every v. A
failure yields two later neighbors with no edge between them, which lie on
a chordless cycle of length at least four. Each vertex's label, |madj(v)|,
is what connectivity reads minimal separators off.

``mcs_search`` keeps the search in the graph's memo, so every caller that
needs the order of a graph or its chordality witness (the CLI's check and
auto mode, recognition, the solver, the contraction plan, the connectivity
check and its elimination-game fill) shares one search; ``mcs_order`` reads
the order off it. ``peo_violation`` certifies any given order on its own.
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


@dataclass(frozen=True)
class McsSearch:
    """One maximum cardinality search of a graph.

    ``peo`` is its elimination order, perfect-elimination iff ``witness``
    is None; otherwise ``witness`` is what ``peo_violation`` reports for
    that order. ``labels[v]`` is the number of neighbors of v selected
    before it, which are its later neighbors in ``peo``.
    """

    peo: Peo
    labels: tuple[int, ...]
    witness: ChordalityWitness | None


def mcs_search(g: Graph) -> McsSearch:
    """The graph's maximum cardinality search, kept in its memo."""
    memo = g._memo
    if "mcs" not in memo:
        memo["mcs"] = _build_mcs_order(g)
    return memo["mcs"]


def mcs_order(g: Graph) -> tuple[int, ...]:
    """Maximum cardinality search elimination order.

    Vertices are selected by descending count of already-selected neighbors,
    ties broken by smallest id; the elimination order is the reverse of the
    selection order. On chordal inputs this is a perfect elimination order.
    Read from ``mcs_search``.
    """
    return mcs_search(g).peo.order


def _build_mcs_order(g: Graph) -> McsSearch:
    n = g.n
    if n == 0:
        raise ValueError("graph must be non-empty")
    adj = g.adj
    count = [0] * n  # frozen at the label once the vertex is selected
    parent = [0] * n  # last neighbor selected before: the earliest later one
    sigma = [0] * n  # 0 until selected
    order = [0] * n
    done: set[int] = set()  # selected so far, so adj[v] & done is madj(v)
    bad = -1
    # key v - count*n orders like (-count, v); a vertex's freshest key pops
    # before its stale ones, and range(n) is already a heap
    heap = list(range(n))
    pop, push = heapq.heappop, heapq.heappush
    for i in range(n, 0, -1):
        v = pop(heap) % n
        while sigma[v]:
            v = pop(heap) % n
        sigma[v] = i
        order[i - 1] = v
        c = count[v]
        # madj(v) minus the parent must lie inside the parent's neighborhood;
        # the last violator found comes first in the elimination order
        if c > 1 and len(adj[v].intersection(done, adj[parent[v]])) != c - 1:
            bad = v
        done.add(v)
        for u in adj[v]:
            if not sigma[u]:
                cu = count[u] + 1
                count[u] = cu
                parent[u] = v
                push(heap, u - cu * n)
    peo = Peo(tuple(order), tuple(sigma))
    witness = None if bad < 0 else _witness_at(g, peo.sigma, bad)
    return McsSearch(peo, tuple(count), witness)


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
    for v in peo.order:
        witness = _witness_at(g, peo.sigma, v)
        if witness is not None:
            return witness
    return None


def _witness_at(g: Graph, sigma, v: int) -> ChordalityWitness | None:
    """v with its earliest later neighbor and the first later neighbor, in
    ``g.adj[v]`` order, that the earliest one misses; None if there is none."""
    later = [u for u in g.adj[v] if sigma[u] > sigma[v]]
    if len(later) < 2:
        return None
    u = min(later, key=sigma.__getitem__)
    for w in later:
        if w != u and w not in g.adj[u]:
            return ChordalityWitness(v, (u, w))
    return None
