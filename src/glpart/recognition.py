"""Recognition of the supported almost-chordal graph class.

A graph qualifies when it has no hole (chordless cycle of length >= 5), no
induced house (chordless 4-cycle plus a fifth vertex adjacent to exactly two
adjacent cycle vertices), and no two induced 4-cycles sharing more than one
vertex. Chordless 4-cycles themselves are allowed; that is the whole point.

Hole search is exact and deterministic: for each vertex v in ascending id
order, look for an induced path of at least three edges between two
non-adjacent neighbors of v that avoids the rest of N[v]; such a path closes
into a hole through v. After v is cleared it is deleted, so every hole is
found at its smallest vertex. The search is budget-bounded and raises rather
than guessing when the budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .c4 import C4Catalog, enumerate_induced_c4
from .errors import SearchBudgetExceededError
from .graph import Graph

DEFAULT_SEARCH_BUDGET = 2_000_000


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


class _Budget:
    __slots__ = ("left",)

    def __init__(self, nodes: int):
        self.left = nodes

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise SearchBudgetExceededError(
                "hole search exceeded its node budget; raise the budget to decide"
            )


def _induced_path_to(
    adj: tuple[frozenset[int], ...],
    allowed: set[int],
    path: list[int],
    target: int,
    budget: _Budget,
) -> list[int] | None:
    """Extend ``path`` inside ``allowed`` to an induced path ending at ``target``.

    The closing vertex counts as path vertex number four or later, so the
    cycle this path closes has length at least five. Depth-first with an
    explicit stack, neighbors in ascending order, one budget unit per
    expanded path.
    """
    budget.spend()
    stack = [(path, iter(sorted(adj[path[-1]] & allowed)))]
    while stack:
        path, candidates = stack[-1]
        for u in candidates:
            if u == target:
                if len(path) >= 3 and all(u not in adj[p] for p in path[:-1]):
                    return path + [u]
                continue
            if u in path:
                continue
            if any(u in adj[p] for p in path[:-1]):
                continue
            budget.spend()
            stack.append((path + [u], iter(sorted(adj[u] & allowed))))
            break
        else:
            stack.pop()
    return None


def _hole_through(
    adj: tuple[frozenset[int], ...],
    active: set[int],
    v: int,
    budget: _Budget,
) -> tuple[int, ...] | None:
    """Smallest-search-order hole through v inside the active vertex set."""
    nbrs = sorted(adj[v] & active)
    closed = adj[v] | {v}
    for i, c1 in enumerate(nbrs):
        for c2 in nbrs[i + 1:]:
            if c2 in adj[c1]:
                continue
            allowed = {x for x in active if x not in closed} | {c2}
            path = _induced_path_to(adj, allowed, [c1], c2, budget)
            if path is not None:
                return (v, *path)
    return None


def find_hole(
    g: Graph, budget: int = DEFAULT_SEARCH_BUDGET
) -> tuple[int, ...] | None:
    """Some chordless cycle of length >= 5, or None if there is none."""
    b = _Budget(budget)
    active = set(g.vertices())
    for v in g.vertices():
        hole = _hole_through(g.adj, active, v, b)
        if hole is not None:
            return hole
        active.discard(v)
    return None


def find_hole_through(
    g: Graph, v: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> tuple[int, ...] | None:
    """Some hole containing vertex v, or None. Exact for that vertex."""
    return _hole_through(g.adj, set(g.vertices()), v, _Budget(budget))


def _house_roof(g: Graph, cycle) -> int | None:
    """A vertex adjacent to exactly two adjacent cycle vertices, if any."""
    cyc = set(cycle)
    for v in g.vertices():
        if v in cyc:
            continue
        hits = [i for i, c in enumerate(cycle) if c in g.adj[v]]
        if len(hits) == 2 and (hits[1] - hits[0]) % 2 == 1:
            return v
    return None


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


def is_hh_i42_free(
    g: Graph, *, hole_budget: int = DEFAULT_SEARCH_BUDGET
) -> ClassCheck:
    """Membership test for the supported class, with a witness on failure.

    Checks, in order: no two catalogued 4-cycles share two or more vertices,
    no catalogued 4-cycle has a roof vertex (house), no hole. Every
    violation reported is real; the first one found wins.
    """
    catalog = enumerate_induced_c4(g)
    violation = scan_catalog_violations(g, catalog)
    if violation is not None:
        return ClassCheck(False, violation)
    hole = find_hole(g, budget=hole_budget)
    if hole is not None:
        return ClassCheck(False, ClassViolation(
            "hole", hole, f"chordless cycle of length {len(hole)}"
        ))
    return ClassCheck(True)
