"""Seeded instance generators.

k-trees are chordal and k-connected by construction, so they exercise the
exact solver without any recognition cost. Almost-chordal members grow out
of a k-tree by appending one four-vertex cycle gadget per desired induced
4-cycle, each anchored on a k-clique of the tree; the gadget's shape makes
the output a class member with exactly that many induced 4-cycles and the
tree's connectivity, so no step needs checking (see
``generate_almost_chordal``).
"""

from __future__ import annotations

import random
from itertools import combinations

from .graph import Graph


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


def generate_almost_chordal(n: int, k: int, cycles: int, seed: int) -> Graph:
    """Random class member with exactly ``cycles`` induced 4-cycles.

    Starts from a k-tree on n - 4*cycles vertices (at least k+1) and
    appends one gadget per cycle: four fresh vertices p-q-r-s-p forming a
    ring, each joined to every vertex of an anchor, a uniformly chosen
    k-clique of the base tree. The output is a member by construction:

    - a ring vertex sees only its ring and its anchor, so two vertices of
      different gadgets, or a gadget vertex and a base vertex, share only
      anchor neighbours; these form a clique, so the rings are the only
      induced 4-cycles and no two of them share a vertex;
    - an anchor vertex sees all four ring vertices and any other vertex
      off the ring sees none, so no vertex sees exactly two adjacent ring
      vertices and no house appears;
    - each anchor clique cuts its rings off the rest, and a hole cannot
      cross a clique separator; the base tree is chordal and a ring plus
      its anchor has no hole (an anchor vertex sees the whole ring), so
      no hole appears;
    - every ring vertex has k neighbours in its anchor, and adding a
      vertex with at least k neighbours keeps a k-connected graph
      k-connected, so κ >= k carries over from the k-tree; the k anchor
      vertices cut a ring off the rest, so κ = k.
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
    rng = random.Random(seed)
    edges, cliques = _ktree_edges_and_cliques(base_n, k, rng)
    for p in range(base_n, n, 4):
        anchor = cliques[rng.randrange(len(cliques))]
        edges += [(p, p + 1), (p + 1, p + 2), (p + 2, p + 3), (p, p + 3)]
        edges += [(x, y) for x in anchor for y in range(p, p + 4)]
    return Graph.from_edges(n, edges)
