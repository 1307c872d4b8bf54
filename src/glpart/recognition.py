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
that component closes the hole. One edge costs an O(n + m) component
search plus the pair test, which stops at its first non-adjacent pair. An
adjacent pair a-d that shares a component closes a house, two 4-cycles
sharing two vertices, or a hole, so once the catalog scans pass, the
search is O(m * (n + m)); on other graphs it is at most O(n * m^2).

Every chordless cycle, a 4-cycle included, meets a clique in one edge at
most, so it lies in one atom of the clique separator decomposition that
recognition shares with the connectivity check (Tarjan, Discrete Math.
55, 1985). A ring + Q atom (an induced 4-cycle joined to a clique that
sees all of it) holds its ring as its only induced 4-cycle and no hole.
So the catalog (``c4.enumerate_induced_c4``) is the rings of those atoms
plus a walk of each other atom, and ``find_hole``, the one hole search,
tries only the edges inside the other atoms, in ascending (u, v) order. A
graph that is its own only atom has all its edges tried. The per-edge
test runs on g, so the first hole edge in that order, and its hole, are
the same under any filter that keeps every hole edge.

``class_violation`` is the verdict: None for a member, else the first
violation found, with its witness. It accepts chordal graphs at once, as
they have no 4-cycle and no hole. Of the others it scans the catalog over
the whole graph (a house can straddle a clique separator), then searches
for a hole. On class members every non-complete atom is ring + Q, so no
walk and no hole search run. Cost: the decomposition, which works only
where g is not chordal, plus the scans of the catalog on members; on
other graphs, the walks of the other atoms and O(n + m) more per scanned
edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import merge
from itertools import groupby
from typing import Iterator

from .c4 import C4Catalog, enumerate_induced_c4
from .chordal import mcs_search
from .connectivity import Atom, clique_decomposition
from .graph import Edge, Graph


@dataclass(frozen=True)
class ClassViolation:
    """Why a graph falls outside the supported class."""

    kind: str  # "hole" | "house" | "c4-overlap"
    vertices: tuple[int, ...]
    detail: str = ""


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
            # one component of G - X, grown from one queue
            start = min(seeds)
            comp = [start]
            inside = {start}
            for u in comp:
                for w in adj[u]:
                    if w not in inside and w not in closed:
                        inside.add(w)
                        comp.append(w)
            touched = set().union(*map(adj.__getitem__, comp))
            seen |= inside
            seeds -= inside
            ends = touched & side_a
            if not ends:
                continue
            for d2 in sorted(touched & side_d):
                free = ends - adj[d2]
                if free:
                    return (b, c, *_shortest_path(adj, d2, min(free), inside))
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
    """Some chordless cycle of length >= 5, or None if there is none.

    The edges inside atoms that are not ring + Q are tried in ascending
    (u, v) order, each listed only once the ones before it hold no
    hole: each atom lists its subgraph's edges ascending in g's ids, the
    lists are merged, and an edge that two atoms share through their
    clique separator is dropped the second time. Once the catalog scans
    pass, a scanned atom with no hole would be a member's atom that is not
    ring + Q, which no member tried so far has; each of its edges before
    the first hole edge would be a search in vain.
    """
    if not g.n:
        return None
    streams = [_edges_of(a) for a in clique_decomposition(g)[0] if not a.ring]
    adj = g.adj
    edges = (e for e, _ in groupby(merge(*streams)))
    return next(filter(None, (_hole_at_edge(adj, b, c) for b, c in edges)), None)


def _edges_of(atom: Atom) -> Iterator[Edge]:
    """The edges of ``atom``'s subgraph in g's ids, (u, v) with u < v, sorted."""
    ids = atom.ids
    for u, nbrs in enumerate(atom.sub.adj):
        for v in sorted(nbrs):
            if u < v:
                yield ids[u], ids[v]


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
    membership: dict[int, list[int]] = {}
    for i, c in enumerate(catalog):
        for v in c:
            membership.setdefault(v, []).append(i)
    for v in sorted(membership):
        cs = membership[v]
        for i, a in enumerate(cs):
            for b in cs[i + 1:]:
                shared = set(catalog[a]) & set(catalog[b])
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
            tuple(sorted(set(catalog[a]) | set(catalog[b]))),
            f"cycles {catalog[a]} and {catalog[b]} share {sorted(shared)}",
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


def class_violation(g: Graph) -> ClassViolation | None:
    """The first violation of the supported class, or None for a member.

    Checks, in order: a chordal graph is in; no two catalogued 4-cycles
    share two or more vertices, no catalogued 4-cycle has a roof vertex
    (house), no hole. Every violation reported is real; the first one wins.
    """
    if not g.n or mcs_search(g).witness is None:
        return None
    violation = scan_catalog_violations(g, enumerate_induced_c4(g))
    if violation is not None:
        return violation
    hole = find_hole(g)
    if hole is None:
        return None
    return ClassViolation("hole", hole, f"chordless cycle of length {len(hole)}")
