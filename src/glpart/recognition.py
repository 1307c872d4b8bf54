"""Recognition of the supported almost-chordal graph class.

A graph qualifies when it has no hole (chordless cycle of length >= 5), no
induced house (chordless 4-cycle plus a fifth vertex adjacent to exactly two
adjacent cycle vertices), and no two induced 4-cycles sharing more than one
vertex. Chordless 4-cycles themselves are allowed; that is the whole point.

Hole search is exact, polynomial and needs no budget. For any edge bc of a
hole, with ring neighbors a of b and d of c, a-b-c-d is an induced path and
the hole's other vertices avoid N[b] | N[c]. So a hole passes through bc
iff some a in N(b) - N[c] and some d in N(c) - N[b] are non-adjacent and
both touch one component of G - (N[b] | N[c]); a shortest d-a path through
that component closes the hole. ``find_hole`` tries the edges (b, c),
b < c, in ascending order. One edge costs an O(n + m) component search
plus the pair test, which stops at its first non-adjacent pair. An
adjacent pair a-d that shares a component closes a house, two 4-cycles
sharing two vertices, or a hole, so on class members the search is
O(m * (n + m)); on other graphs it is at most O(n * m^2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .c4 import C4Catalog, enumerate_induced_c4
from .graph import Graph


@dataclass(frozen=True)
class ClassViolation:
    """Why a graph falls outside the supported class."""

    kind: str  # "hole" | "house" | "c4-overlap"
    vertices: tuple[int, ...]
    detail: str = ""


@dataclass(frozen=True)
class ClassCheck:
    """Recognition verdict; truthy iff the graph is in the class."""

    ok: bool
    violation: ClassViolation | None = None

    def __bool__(self) -> bool:
        return self.ok


def _hole_at_edge(
    adj: tuple[frozenset[int], ...], b: int, c: int
) -> tuple[int, ...] | None:
    """A hole through the edge bc, starting ``(b, c, ...)``, or None.

    With X = N[b] | N[c], A = N(b) - N[c] and D = N(c) - N[b], a hole
    a-b-c-d-...-a exists iff some non-adjacent a in A and d in D both touch
    one component of G - X. The components touched by D are grown from
    d's neighbors outside X, d and seed ascending. In the first component
    that qualifies, the smallest such d and then the smallest such a are
    taken, and a shortest d-a path through the component closes the cycle.
    """
    closed = adj[b] | adj[c]
    side_a = adj[b] - adj[c] - {c}
    side_d = adj[c] - adj[b] - {b}
    if not side_a or not side_d:
        return None
    seen: set[int] = set()
    for d in sorted(side_d):
        seeds = adj[d] - closed - seen
        while seeds:
            # one component of G - X, grown a level at a time
            frontier = {min(seeds)}
            comp = set(frontier)
            touched: set[int] = set()
            while frontier:
                reach = set().union(*(adj[u] for u in frontier))
                touched |= reach
                frontier = reach - closed - comp
                comp |= frontier
            seen |= comp
            seeds -= comp
            ends = touched & side_a
            if not ends:
                continue
            for d2 in sorted(touched & side_d):
                free = ends - adj[d2]
                if free:
                    return (b, c, *_shortest_path(adj, d2, min(free), comp))
    return None


def _shortest_path(
    adj: tuple[frozenset[int], ...], s: int, t: int, inner: set[int]
) -> list[int]:
    """A shortest s-t path whose inner vertices all lie in ``inner``.

    Breadth-first, neighbors in ascending order. With s and t non-adjacent
    a shortest such path has no chord.
    """
    parent = {s: s}
    queue = deque([s])
    while t not in parent:
        u = queue.popleft()
        for w in sorted(adj[u]):
            if w not in parent and (w in inner or w == t):
                parent[w] = u
                queue.append(w)
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    return path[::-1]


def find_hole(g: Graph) -> tuple[int, ...] | None:
    """Some chordless cycle of length >= 5, or None if there is none."""
    for b in g.vertices():
        for c in sorted(g.adj[b]):
            if c > b:
                hole = _hole_at_edge(g.adj, b, c)
                if hole is not None:
                    return hole
    return None


def _house_roof(g: Graph, cycle) -> int | None:
    """The smallest vertex adjacent to exactly two adjacent cycle vertices.

    Only neighbors of the cycle can qualify, so only they are scanned.
    """
    cyc = set(cycle)
    hits: dict[int, list[int]] = {}
    for i, c in enumerate(cycle):
        for v in g.adj[c]:
            if v not in cyc:
                hits.setdefault(v, []).append(i)
    roofs = [
        v for v, h in hits.items() if len(h) == 2 and (h[1] - h[0]) % 2 == 1
    ]
    return min(roofs, default=None)


def _overlapping_pair(catalog: C4Catalog):
    membership = catalog.vertex_membership()
    for v in sorted(membership):
        cs = membership[v]
        for i, a in enumerate(cs):
            for b in cs[i + 1:]:
                shared = set(catalog.cycles[a]) & set(catalog.cycles[b])
                if len(shared) >= 2:
                    return a, b, shared
    return None


def scan_catalog_violations(g: Graph, catalog: C4Catalog) -> ClassViolation | None:
    """Overlap and house violations visible from the 4-cycle catalog alone."""
    overlap = _overlapping_pair(catalog)
    if overlap is not None:
        a, b, shared = overlap
        return ClassViolation(
            "c4-overlap",
            tuple(sorted(set(catalog.cycles[a]) | set(catalog.cycles[b]))),
            f"cycles {catalog.cycles[a]} and {catalog.cycles[b]} share {sorted(shared)}",
        )
    for cycle in catalog:
        roof = _house_roof(g, cycle)
        if roof is not None:
            return ClassViolation(
                "house",
                tuple(sorted((*cycle, roof))),
                f"vertex {roof} roofs cycle {cycle}",
            )
    return None


def is_hh_i42_free(g: Graph) -> ClassCheck:
    """Membership test for the supported class, with a witness on failure.

    Checks, in order: no two catalogued 4-cycles share two or more vertices,
    no catalogued 4-cycle has a roof vertex (house), no hole. Every
    violation reported is real; the first one found wins.
    """
    return _class_check(g, enumerate_induced_c4(g))


def _class_check(g: Graph, catalog: C4Catalog) -> ClassCheck:
    """``is_hh_i42_free`` on the 4-cycle catalog of ``g`` built by the caller."""
    violation = scan_catalog_violations(g, catalog)
    if violation is not None:
        return ClassCheck(False, violation)
    hole = find_hole(g)
    if hole is not None:
        return ClassCheck(False, ClassViolation(
            "hole", hole, f"chordless cycle of length {len(hole)}"
        ))
    return ClassCheck(True)
