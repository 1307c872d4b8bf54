"""Seeded instance generators.

k-trees are chordal and k-connected by construction, so they exercise the
exact solver without any recognition cost. Almost-chordal members grow out
of a k-tree by appending one four-vertex cycle gadget per desired induced
4-cycle; every step is re-certified (catalog count, house and overlap scan,
exact hole search through the four new vertices), so the output is a
guaranteed class member with a known cycle count; a request that keeps
failing certification stops after 20 attempts per cycle. Connectivity
needs no per-step check: every gadget vertex is joined to a whole k-clique,
and adding a vertex with at least k neighbours keeps a k-connected graph
k-connected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .c4 import enumerate_induced_c4
from .graph import Graph
from .recognition import find_hole_through, scan_catalog_violations

# certification attempts allowed per requested cycle before giving up
_MAX_ATTEMPTS_PER_CYCLE = 20


def _ktree_edges_and_cliques(n: int, k: int, rng: random.Random):
    """Edge list of a random k-tree plus all of its k-cliques."""
    edges = list(combinations(range(k + 1), 2))
    cliques = [tuple(c) for c in combinations(range(k + 1), k)]
    for v in range(k + 1, n):
        base = cliques[rng.randrange(len(cliques))]
        edges.extend((u, v) for u in base)
        for rest in combinations(base, k - 1):
            cliques.append(tuple(sorted(rest + (v,))))
    return edges, cliques


def generate_ktree(n: int, k: int, seed: int) -> Graph:
    """Random k-tree on n vertices: K_{k+1} plus n-k-1 attachments.

    Each new vertex is joined to a uniformly chosen existing k-clique.
    Deterministic for a fixed (n, k, seed).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if n < k + 1:
        raise ValueError(f"a {k}-tree needs at least {k + 1} vertices")
    edges, _ = _ktree_edges_and_cliques(n, k, random.Random(seed))
    return Graph.from_edges(n, edges)


@dataclass(frozen=True)
class AlmostChordalInstance:
    """Generator output: a certified class member and its cycle count."""

    graph: Graph
    k: int
    cycles: int
    requested_cycles: int


def _with_cycle_gadget(g: Graph, q_clique: tuple[int, ...]) -> Graph:
    """Append four fresh vertices forming an induced 4-cycle, all adjacent
    to every vertex of ``q_clique``.

    The clique is universal to the new cycle, so no vertex outside it sees
    two cycle vertices; the clique boundary also blocks any hole from
    crossing into the gadget, and the gadget leaves the rest of the graph
    untouched.
    """
    n = g.n
    p, q, r, s = n, n + 1, n + 2, n + 3
    edges = list(g.edges())
    edges += [(p, q), (q, r), (r, s), (p, s)]
    edges += [(x, y) for x in q_clique for y in (p, q, r, s)]
    return Graph.from_edges(n + 4, edges)


def _certify_step(g: Graph, fresh: tuple[int, ...], want_cycles: int) -> bool:
    catalog = enumerate_induced_c4(g)
    if len(catalog) != want_cycles:
        return False
    if scan_catalog_violations(g, catalog) is not None:
        return False
    # holes avoiding every fresh vertex would predate this step; connectivity
    # needs no check, since each fresh vertex sees a whole k-clique
    return all(find_hole_through(g, v) is None for v in fresh)


def generate_almost_chordal(
    n: int,
    k: int,
    cycles: int,
    seed: int,
) -> AlmostChordalInstance:
    """Random certified class member with ``cycles`` induced 4-cycles.

    Starts from a k-tree on n - 4*cycles vertices (at least k+1) and
    appends one cycle gadget per desired 4-cycle, each anchored on a
    uniformly chosen k-clique of the base tree. A step is kept only when
    the catalog grew by exactly one, the house and overlap scans stay
    clean, and no hole passes through any of the four fresh vertices;
    k-connectivity carries over by construction. Returns the achieved
    cycle count, which can fall short of the request only if certification
    keeps failing.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if cycles < 0:
        raise ValueError("cycles must be non-negative")
    base_n = n - 4 * cycles
    if base_n < k + 1:
        raise ValueError(
            f"n={n} is too small for {cycles} planted cycles over a "
            f"{k}-tree base; need n >= {k + 1 + 4 * cycles}"
        )
    target = cycles
    rng = random.Random(seed)
    edges, cliques = _ktree_edges_and_cliques(base_n, k, rng)
    g = Graph.from_edges(base_n, edges)
    achieved = 0
    attempts = _MAX_ATTEMPTS_PER_CYCLE * max(target, 1)
    while achieved < target and attempts > 0:
        attempts -= 1
        anchor = cliques[rng.randrange(len(cliques))]
        cand = _with_cycle_gadget(g, anchor)
        fresh = tuple(range(g.n, g.n + 4))
        if not _certify_step(cand, fresh, achieved + 1):
            continue
        g = cand
        achieved += 1
    return AlmostChordalInstance(g, k, achieved, target)
