"""Seeded instance generators.

k-trees are chordal and k-connected by construction, so they exercise the
exact solver without any recognition cost. Almost-chordal members grow out
of a k-tree by appending one four-vertex cycle gadget per desired induced
4-cycle, each anchored on a k-clique of the tree; the gadget's shape makes
the output a class member with exactly that many induced 4-cycles and the
tree's connectivity, so no step needs checking (see
``generate_almost_chordal``).

A k-tree keeps no list of its k-cliques. Vertex v > k joins a clique
``base(v)``, stored once as a sorted tuple, and its k new cliques are
``base(v)`` less one element, plus v. They are numbered in the order a
list that appended ``combinations(base(v), k - 1)`` with v added to each
would hold them, so clique j is read off in O(k):

- for j <= k, clique j is ``combinations(range(k + 1), k)[j]``, which is
  ``0..k`` less k - j;
- otherwise, with ``q, r = divmod(j - k - 1, k)``, clique j is
  ``base(q + k + 1)`` less its element at index k - 1 - r, then q + k + 1.

``combinations`` of a sorted tuple drops the last element first, and v is
larger than every vertex of its base, so each clique comes out sorted.

The index of each new vertex's base is drawn inline as CPython's
``Random._randbelow_with_getrandbits`` draws ``randrange(m)``: the first
``getrandbits(m.bit_length())`` value below m. This makes the same
``getrandbits`` calls as ``rng.randrange(m)``, so the output and the
generator's state afterwards are those of ``randrange``; the tests hold
the two to equal values and ``getstate()``, and the equivalence was
checked under CPython 3.10, 3.11, 3.12 and 3.13.

Both generators build their graph with ``Graph.from_edges`` from the edge
list in generation order, unsorted: a frozenset's iteration order depends
on the order its elements went in, and witnesses read that order. In that
list every pair (u, v) has u < v, and the partners v of each u come in
ascending order (see ``sorted_edges``), so ``generate`` prints a stable
sort of it on u and builds no ``Graph``.
"""

from __future__ import annotations

import random
from itertools import combinations
from operator import itemgetter

from .graph import Edge, Graph


def _ktree(n: int, k: int, rng: random.Random):
    """Edge list of a random k-tree on n vertices, and ``clique(j)``, its
    j-th k-clique in the numbering the module docstring gives."""
    first = tuple(range(k + 1))
    bases: list[tuple[int, ...]] = []

    def clique(j: int) -> tuple[int, ...]:
        if j <= k:
            return first[:k - j] + first[k - j + 1:]
        q, r = divmod(j - k - 1, k)
        base = bases[q]
        i = k - 1 - r
        return base[:i] + base[i + 1:] + (q + k + 1,)

    edges = list(combinations(first, 2))
    getrandbits = rng.getrandbits
    m = k + 1  # the k-cliques so far
    for v in range(k + 1, n):
        bits = m.bit_length()
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        base = clique(j)
        bases.append(base)
        edges.extend((u, v) for u in base)
        m += k
    return edges, clique


def generate_ktree(n: int, k: int, seed: int) -> Graph:
    """Random k-tree on n vertices: K_{k+1} plus n-k-1 attachments.

    Each new vertex is joined to a uniformly chosen existing k-clique.
    Deterministic for a fixed (n, k, seed).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if n < k + 1:
        raise ValueError(f"a {k}-tree needs at least {k + 1} vertices")
    edges, _ = _ktree(n, k, random.Random(seed))
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
    return Graph.from_edges(n, _members(n, k, cycles, random.Random(seed)))


def _members(n: int, k: int, cycles: int, rng: random.Random) -> list[Edge]:
    """Edge list of a member: a k-tree on n - 4*cycles vertices, then one
    ring and its anchor's edges per gadget, in generation order. With no
    cycles it is the k-tree's list."""
    base_n = n - 4 * cycles
    edges, clique = _ktree(base_n, k, rng)
    count = (base_n - k) * k + 1  # the k-cliques of a k-tree on base_n vertices
    for p in range(base_n, n, 4):
        anchor = clique(rng.randrange(count))
        edges += [(p, p + 1), (p + 1, p + 2), (p + 2, p + 3), (p, p + 3)]
        edges += [(x, y) for x in anchor for y in range(p, p + 4)]
    return edges


def sorted_edges(n: int, k: int, cycles: int, seed: int) -> list[Edge]:
    """The edges of ``generate_almost_chordal(n, k, cycles, seed)``, or of
    ``generate_ktree(n, k, seed)`` when ``cycles`` is 0, as
    ``Graph.edges()`` lists them, built with no ``Graph``. The arguments
    must be ones those functions accept.

    A stable sort of the generation list on u alone gives the full sort,
    because in that list each pair (u, v) has u < v and the partners v of
    each u come in ascending order:

    - the base clique's pairs come from ``combinations``, in order;
    - a new k-tree vertex v is larger than every earlier endpoint, and
      its pairs (u, v) follow all earlier ones;
    - every edge of a gadget ends at one of its four new ring vertices,
      which are larger than every earlier endpoint, and inside one gadget
      each vertex's partners come in ascending order: p's are p + 1, then
      p + 3; p + 1's and p + 2's are one each; the anchor is a sorted
      tuple, and each anchor vertex x gets p, p + 1, p + 2, p + 3 in turn.

    The generation list holds no pair twice, so nothing is left for
    ``Graph.from_edges`` to merge.
    """
    edges = _members(n, k, cycles, random.Random(seed))
    edges.sort(key=itemgetter(0))
    return edges
