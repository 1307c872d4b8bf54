"""Chordality testing and perfect elimination orderings.

One maximum cardinality search orders a graph, records each vertex's later
neighbors and certifies the order in a single pass (Tarjan & Yannakakis,
SIAM J. Comput. 13(3), 1984). When a vertex is selected, its neighbors
selected before it, madj(v), are its later neighbors in the elimination
order; the last of them to be selected, its parent, is the earliest. The
order is perfect-elimination iff madj(v) minus the parent lies inside the
parent's neighborhood for every v. A failure yields two later neighbors
with no edge between them, which lie on a chordless cycle of length at
least four; the witness takes the parent and the smallest-id later
neighbor it misses.

The search keeps madj(u) of each unselected u as a list: selecting v
appends v to the list of each unselected neighbor, so the list's length is
u's count and, once u is selected, its last element is u's parent. Each
count c has a heap of the ids that reached it, pushed once per edge; level
0 starts with every id. The largest count rises by at most one per
selection, so after selecting a vertex of count c the search sets ``top``
to c + 1 and walks down past levels with no live entry; an entry of level
``top`` is live when its vertex is unselected, as its count is then
exactly ``top``. After the search one walk along the order pops each
list's parent, checks the rest against the parent's neighbor set and
appends the parent back, so the lists stay whole. It keeps every
violator: the witness is read off the first one's list, and connectivity
starts the elimination game's fill from them all, so a non-chordal graph
costs Python work only where it is not chordal. The search is
O((n + m) log n); the check is O(n + m).

``mcs_search`` keeps its ``McsSearch`` in the graph's memo, so every caller
that needs the order of a graph or its chordality witness (the CLI's check,
``solve``'s auto mode, recognition, the solver, the contraction plan, the
connectivity check and its elimination-game fill) shares one record: the
order, its positions ``sigma``, the lists, the witness and the violators.
Its lists (``later``) are the one record of later neighbors: connectivity
reads labels, minimal separators and the fill off them, and since the memo
shares them, no reader may mutate them. ``peo_violation`` certifies any
given order: it builds the order's later lists off its positions, in the
search's shape, and runs the search's walk on them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class ChordalityWitness:
    """Evidence that a graph is not chordal.

    ``vertex`` has two later neighbors ``nonadjacent`` (relative to the
    attempted elimination order) that are not adjacent to each other; the
    three lie on a chordless cycle of length >= 4. The pair is the earliest
    later neighbor and the smallest-id later neighbor that it misses.
    """

    vertex: int
    nonadjacent: tuple[int, int]


@dataclass(frozen=True)
class McsSearch:
    """One maximum cardinality search of a graph.

    ``order[i]`` is the vertex at elimination position i + 1 and
    ``sigma[v]`` the position of v. The order is perfect-elimination iff
    ``witness`` is None; otherwise ``witness`` is what ``peo_violation``
    reports for it. ``later[v]`` lists v's later neighbors, the neighbors
    selected before it, in selection order, so by descending position, with
    v's parent, the earliest, last; its length is v's label. The lists are
    shared through the graph's memo and must not be mutated. ``violators``
    holds, in elimination order, every vertex whose later neighbors other
    than the earliest do not all see that earliest one. The witness is read
    off the first one's list; the elimination game's fill starts from them all.
    """

    order: tuple[int, ...]
    sigma: tuple[int, ...]
    later: list[list[int]]
    witness: ChordalityWitness | None
    violators: tuple[int, ...]


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
    return mcs_search(g).order


def _build_mcs_order(g: Graph) -> McsSearch:
    n = g.n
    if n == 0:
        raise ValueError("graph must be non-empty")
    adj = g.adj
    sigma = [0] * n  # 0 until selected
    order = [0] * n
    # madj[u]: u's neighbors selected so far, in selection order; its length
    # is u's count, and its last element, once u is selected, is its parent
    madj: list[list[int]] = [[] for _ in range(n)]
    # levels[c]: a heap of the ids that reached count c, so the smallest
    # selectable id of a level is its smallest unselected entry; every id
    # starts on level 0, and a sorted list is already a heap
    levels: list[list[int]] = [[] for _ in range(max(map(len, adj)) + 2)]
    levels[0] = list(range(n))
    top = 0  # no unselected vertex has a count above top
    pop, push = heapq.heappop, heapq.heappush
    for i in range(n, 0, -1):
        # An entry of level top whose vertex is unselected is live: counts
        # only grow, so its count is at least top, and no count exceeds top.
        # Stale entries are dropped; an empty level lowers top. Level 0
        # holds every id, so it keeps a live entry while any is unselected.
        while True:
            heap = levels[top]
            while heap:
                v = pop(heap)
                if not sigma[v]:
                    break
            else:
                top -= 1
                continue
            break
        sigma[v] = i
        order[i - 1] = v
        for u in adj[v]:
            if not sigma[u]:
                later = madj[u]
                later.append(v)
                push(levels[len(later)], u)
        # every count rose by at most one, so none exceeds v's count plus one
        top = len(madj[v]) + 1
    witness, violators = _peo_walk(adj, order, madj)
    return McsSearch(tuple(order), tuple(sigma), madj, witness, violators)


def _peo_walk(adj, order, later) -> tuple[ChordalityWitness | None, tuple[int, ...]]:
    """The witness and every violator of ``order``, given each vertex's
    later neighbors by descending position, so with its parent last. Each
    list's parent is popped for the check and appended back, so the lists
    are left as they were."""
    bad = []
    for v in order:
        lv = later[v]
        if len(lv) > 1:
            p = lv.pop()
            if not adj[p].issuperset(lv):
                bad.append(v)
            lv.append(p)
    witness = None
    if bad:
        *rest, p = later[bad[0]]
        witness = ChordalityWitness(bad[0], (p, min(set(rest) - adj[p])))
    return witness, tuple(bad)


def peo_violation(g: Graph, order) -> ChordalityWitness | None:
    """Certify an elimination order, or return why it fails.

    Checks, for each vertex v, that the later neighbors of v other than the
    earliest one are all adjacent to that earliest one. Passing for every v
    is equivalent to the order being perfect-elimination. The later lists
    are built in one pass from the last position down, and the search's
    walk checks them: O(n + m).
    """
    order = tuple(order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of 0..n-1")
    adj = g.adj
    later: list[list[int]] = [[] for _ in range(g.n)]
    done = [False] * g.n
    for v in reversed(order):
        done[v] = True
        for u in adj[v]:
            if not done[u]:
                later[u].append(v)
    return _peo_walk(adj, order, later)[0]
