"""Induced 4-cycle catalogs.

A catalog is a plain sorted tuple of every chordless 4-cycle of a graph,
each in a canonical form: the cycle's tuple starts at its smallest vertex
and walks toward its smaller neighbor, so equal graphs always produce
equal catalogs and a cycle's id is its index.

``enumerate_induced_c4`` walks two-paths from each vertex in descending
degree order, as Chiba & Nishizeki do for cycle listing ("Arboricity and
subgraph listing algorithms", SIAM J. Comput. 14(1), 1985). A walk only
steps onto vertices that rank after its start, so each chordless cycle
is met exactly once, at its highest-ranked vertex, and no deduplication
is needed. The middle vertex of every two-path has degree at most the
start's, so the walk costs O(a(G) * m) plus one adjacency test per pair
of middles sharing a start and an end, where a(G) is the arboricity;
a k-tree has a(G) <= k. Each graph keeps its catalog in its memo, so the
walk runs at most once per graph. Recognition seeds the memo of a
non-chordal graph through ``catalog_of_atoms``: every induced 4-cycle lies
in one clique separator atom, so an atom that is one ring joined to a
clique adds its ring with no walk, and only the other atoms are walked,
each on its own vertices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .graph import Graph, induced_subgraph

if TYPE_CHECKING:
    from .connectivity import Atom

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
    """Catalog every chordless 4-cycle of ``g``, kept in the graph's memo."""
    memo = g._memo
    if "c4" not in memo:
        memo["c4"] = _build_catalog(g)
    return memo["c4"]


def catalog_of_atoms(g: Graph, atoms: Iterable[Atom]) -> C4Catalog:
    """g's catalog from its non-complete clique separator ``atoms``, kept in
    the graph's memo.

    Every induced 4-cycle lies in exactly one of them: two atoms share
    only a clique, and a complete atom has none. A ring + Q atom holds just
    its ring, and any other atom is walked on its own induced subgraph,
    whose ids map back in ascending order, so each cycle keeps its
    canonical form. An atom holding all of g's vertices walks g itself.
    """
    memo = g._memo
    if "c4" not in memo:
        cycles: list[Cycle] = []
        for atom in atoms:
            if atom.ring:
                cycles.append(_canonical(*atom.ring))
            elif len(atom.ids) == g.n:
                return enumerate_induced_c4(g)
            else:
                sub, ids = induced_subgraph(g, atom.ids)
                back = ids.__getitem__
                cycles += (tuple(map(back, c)) for c in _build_catalog(sub))
        cycles.sort()
        memo["c4"] = tuple(cycles)
    return memo["c4"]


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
