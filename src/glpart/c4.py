"""Induced 4-cycle catalogs.

A catalog is a plain sorted tuple of every chordless 4-cycle of a graph,
each in a canonical form: the cycle's tuple starts at its smallest vertex
and walks toward its smaller neighbor, so equal graphs always produce
equal catalogs and a cycle's id is its index.

``enumerate_induced_c4`` is the one entry point; each graph keeps its
catalog in its memo. Every induced 4-cycle lies in one clique separator
atom (Tarjan, Discrete Math. 55, 1985), so the catalog is read off the
decomposition that recognition and the connectivity check share: a ring
+ Q atom adds its ring with no walk, and each other atom is walked on the
subgraph the decomposition keeps for it. A member's catalog costs its
search and decomposition and no walk, whether or not its checks ran.

The walk, ``_build_catalog``, follows two-paths from each vertex in
descending degree order, as Chiba & Nishizeki do for cycle listing
("Arboricity and subgraph listing algorithms", SIAM J. Comput. 14(1),
1985). A walk only steps onto vertices that rank after its start, so each
chordless cycle is met exactly once, at its highest-ranked vertex, and no
deduplication is needed. The middle vertex of every two-path has degree
at most the start's, so the walk costs O(a(G) * m) plus one adjacency test
per pair of middles sharing a start and an end, where a(G) is the
arboricity; a k-tree has a(G) <= k.
"""

from __future__ import annotations

from .connectivity import clique_decomposition
from .graph import Graph

Cycle = tuple[int, int, int, int]
# all induced 4-cycles of one graph, canonically ordered
C4Catalog = tuple[Cycle, ...]


def _canonical(diag_a: tuple[int, int], diag_b: tuple[int, int]) -> Cycle:
    """Canonical walk of the cycle whose diagonals are the two given pairs."""
    vs = (*diag_a, *diag_b)
    first = min(vs)
    if first in diag_a:
        opposite = diag_a[0] if diag_a[1] == first else diag_a[1]
        flank = diag_b
    else:
        opposite = diag_b[0] if diag_b[1] == first else diag_b[1]
        flank = diag_a
    return (first, min(flank), opposite, max(flank))


def enumerate_induced_c4(g: Graph) -> C4Catalog:
    """Catalog every chordless 4-cycle of ``g``, kept in the graph's memo.

    Read off g's non-complete clique separator atoms, in which every
    induced 4-cycle lies exactly once: two atoms share only a clique, and a
    complete atom has none. A ring + Q atom holds just its ring, and any
    other atom is walked on its induced subgraph, whose ids map back in
    ascending order, so each cycle keeps its canonical form. A chordal
    graph has no atom and an empty catalog.
    """
    memo = g._memo
    if "c4" not in memo:
        cycles: list[Cycle] = []
        for atom in clique_decomposition(g)[0]:
            if atom.ring:
                cycles.append(_canonical(*atom.ring))
            else:
                back = atom.ids.__getitem__
                cycles += (tuple(map(back, c)) for c in _build_catalog(atom.sub))
        cycles.sort()
        memo["c4"] = tuple(cycles)
    return memo["c4"]


def induced_catalog(g: Graph, sub: Graph, fwd: dict[int, int]) -> None:
    """Keep in the memo of ``sub``, which ``induced_subgraph`` built from
    ``g`` on the ids that ``fwd`` maps to sub's, the 4-cycles of g that
    avoid every dropped id. ``fwd`` ascends, so each cycle keeps its
    canonical form and the catalog its order."""
    sub._memo["c4"] = tuple(tuple(map(fwd.__getitem__, c)) for c in
                            enumerate_induced_c4(g) if all(map(fwd.__contains__, c)))


def _build_catalog(g: Graph) -> C4Catalog:
    """The catalog of ``g``, built from scratch.

    Vertices are ranked by descending degree, ties by id. For each v in
    rank order, walk v -> u -> w over neighbors u and w that both rank
    after v, with w not adjacent to v, and collect the middles u per end w.
    Every non-adjacent pair (a, b) of middles closes a chordless cycle
    v-a-w-b with diagonals (v, w) and (a, b). Each cycle is found exactly
    once, at its highest-ranked vertex v: only there do both of v's ring
    neighbors and its opposite vertex rank after the start, and the
    opposite vertex and middle pair are then fixed. Sorting the cycles
    gives the canonical order.

    Every middle u ranks after v, so deg(u) <= deg(v): scanning N(u) costs
    min(deg(u), deg(v)) per edge uv, O(a(G) * m) in all (Chiba & Nishizeki
    1985).
    """
    adj = g.adj
    order = sorted(g.vertices(), key=lambda x: (-len(adj[x]), x))
    rank = [0] * g.n
    for i, x in enumerate(order):
        rank[x] = i
    cycles: list[Cycle] = []
    for rv, v in enumerate(order):
        av = adj[v]
        middles: dict[int, list[int]] = {}
        for u in av:
            if rank[u] <= rv:
                continue
            for w in adj[u]:
                if rank[w] > rv and w not in av:
                    middles.setdefault(w, []).append(u)
        for w, us in middles.items():
            for i, a in enumerate(us):
                for b in us[i + 1:]:
                    if b not in adj[a]:
                        cycles.append(_canonical((v, w), (a, b)))
    cycles.sort()
    return tuple(cycles)
