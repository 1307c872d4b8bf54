"""Induced 4-cycle catalogs.

A catalog lists every chordless 4-cycle of a graph in a canonical form:
the tuple starts at the cycle's smallest vertex and walks toward its
smaller neighbor, so equal graphs always produce equal catalogs and cycle
ids are stable.

``enumerate_induced_c4`` walks two-paths from each vertex in descending
degree order, as Chiba & Nishizeki do for cycle listing ("Arboricity and
subgraph listing algorithms", SIAM J. Comput. 14(1), 1985). A walk only
steps onto vertices that rank after its start, so each chordless cycle
is met exactly once, at its highest-ranked vertex, and no deduplication
is needed. The middle vertex of every two-path has degree at most the
start's, so the walk costs O(a(G) * m) plus one adjacency test per pair
of middles sharing a start and an end, where a(G) is the arboricity;
a k-tree has a(G) <= k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph

Cycle = tuple[int, int, int, int]


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


@dataclass(frozen=True)
class C4Catalog:
    """All induced 4-cycles of one graph, canonically ordered."""

    cycles: tuple[Cycle, ...]

    def __len__(self) -> int:
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles)

    def vertex_membership(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, c in enumerate(self.cycles):
            for v in c:
                out.setdefault(v, []).append(i)
        return out


def enumerate_induced_c4(g: Graph) -> C4Catalog:
    """Catalog every chordless 4-cycle of ``g``.

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
    return C4Catalog(tuple(cycles))
