"""Induced 4-cycle catalogs and their incidence structure.

A catalog lists every chordless 4-cycle of a graph in a canonical form:
the tuple starts at the cycle's smallest vertex and walks toward its
smaller neighbor, so equal graphs always produce equal catalogs and cycle
ids are stable. A 4-vertex set carries at most one chordless cycle, which
makes set-keyed deduplication exact.
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


def cycle_edges(cycle: Cycle) -> tuple[tuple[int, int], ...]:
    a, b, c, d = cycle
    return tuple(
        (x, y) if x < y else (y, x) for x, y in ((a, b), (b, c), (c, d), (d, a))
    )


def enumerate_induced_c4(g: Graph) -> C4Catalog:
    """Catalog every chordless 4-cycle of ``g``.

    Scans vertex pairs (u, w) at distance two and non-adjacent pairs inside
    their common neighborhood; each such configuration is a chordless cycle
    with diagonals (u, w) and (a, b). Every cycle is met once per diagonal
    and deduplicated by its vertex set.
    """
    seen: dict[tuple[int, ...], Cycle] = {}
    for u in g.vertices():
        second = set().union(*(g.adj[x] for x in g.adj[u])) - g.adj[u]
        for w in second:
            if w <= u:
                continue
            common = sorted(g.adj[u] & g.adj[w])
            for i, a in enumerate(common):
                for b in common[i + 1:]:
                    if b in g.adj[a]:
                        continue
                    key = tuple(sorted((u, w, a, b)))
                    if key not in seen:
                        seen[key] = _canonical((u, w), (a, b))
    return C4Catalog(tuple(sorted(seen.values())))


@dataclass(frozen=True)
class C4IncidenceGraph:
    """Bipartite incidence of cycles vs. vertices shared by >= 2 cycles.

    Each edge pairs a cycle index with a shared graph vertex. On supported
    inputs this structure is a forest; that is what guarantees the
    contraction loop always finds a cycle with three private vertices.
    """

    cycle_count: int
    is_forest: bool


def build_c4_incidence(catalog: C4Catalog) -> C4IncidenceGraph:
    membership = catalog.vertex_membership()
    shared = tuple(sorted(v for v, cs in membership.items() if len(cs) >= 2))
    edges = tuple(
        (ci, v) for v in shared for ci in membership[v]
    )
    # union-find acyclicity over cycle nodes and shared-vertex nodes
    m = len(catalog)
    index = {v: m + i for i, v in enumerate(shared)}
    parent = list(range(m + len(shared)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forest = True
    for ci, v in edges:
        a, b = find(ci), find(index[v])
        if a == b:
            forest = False
            break
        parent[a] = b
    return C4IncidenceGraph(m, forest)
