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

The cut is made without slices: ``_droppers(k)`` precomputes, for each
r, ``drop[r]``, an ``operator.itemgetter`` over the k - 1 indices that
clique j keeps, so clique j is ``drop[r](base(q + k + 1)) + (q + k + 1,)``,
one ``itemgetter`` call and one concatenation in place of two slices and
two concatenations. ``itemgetter`` of one index returns a scalar and of
none is an error, so for k <= 2 ``drop[r]`` slices instead. ``_clique``
reads clique j through that table; ``_draw`` inlines its j > k case for
each new base and calls it for the first clique and the anchors.

Every draw that shapes an instance is made here: its graph, weights,
terminals and demands. The graph reads ``random.Random(seed)``; the
weights, terminals and demands read ``request_rng(seed)``, a generator
seeded apart from it, so no request value is a function of the graph's
draws. ``_draw`` makes each base draw inline as CPython's ``randrange(m)``
makes it, the first ``getrandbits(m.bit_length())`` value below m, so the
graphs are those of one ``randrange`` call per vertex. ``instance_text``
draws what ``glpart generate`` writes: the weights, the terminals and the
demands, then the graph, so a request that ``draw_request`` refuses costs
no graph draw. The two streams share no word, so the order changes no
byte.

Every random choice of the graph is made once, by ``_draw``, which returns
the drawn cliques: each k-tree vertex's base, then each gadget's anchor.
They are read one way, by ``later_neighbours``, which gives each vertex u
its neighbours v > u: ``generate`` writes those lists, and both graph
builders hand them to ``Graph.from_edges`` as the edges (u, v).

Each vertex's list comes out ascending, with no sort, so its lines come
out in ascending (u, v) order:

- the first clique's lists are written whole, u + 1 to k for vertex u;
- a k-tree vertex v is larger than every earlier vertex, and is appended
  to the list of each vertex of its base after every earlier partner;
- each gadget edge ends at one of its four ring vertices, which are larger
  than every earlier vertex, and inside one gadget p gets p + 1, then
  p + 3; p + 1 and p + 2 get one partner each; and each anchor vertex gets
  p, p + 1, p + 2, p + 3 in turn.

No pair is drawn twice, so the lists' total length is the edge count.
"""

from __future__ import annotations

import random
from operator import itemgetter

from .errors import DemandError
from .graph import Graph
from .instances import format_parts
from .partition import PartitionRequest


def _clique(bases: list[tuple[int, ...]], drop: list, j: int) -> tuple[int, ...]:
    """Clique j of a k-tree whose vertices k + 1, k + 2, ... joined the
    cliques ``bases``, in the numbering the module docstring gives, with
    ``drop = _droppers(k)``."""
    k = len(drop)
    if j <= k:
        return tuple(range(k - j)) + tuple(range(k - j + 1, k + 1))
    q, r = divmod(j - k - 1, k)
    return drop[r](bases[q]) + (q + k + 1,)


def _droppers(k: int) -> list:
    """``drop[r]`` for r < k: a callable that maps a base, a sorted
    k-tuple, to the base less its element at index k - 1 - r. Each is one
    ``itemgetter`` over the k - 1 kept indices, or a slice where k - 1 < 2
    and ``itemgetter`` would return a scalar or fail.

    The table stays because generation time counts: a plain list of every
    clique, drawn with ``rng.randrange``, makes the same draws but took
    26-65 ms against 8-18 ms for the seven k-trees of one batch of n =
    1,000-4,000 (2-core host, Python 3.11), whose whole ``generate`` takes
    about 30 ms."""
    drop = []
    for r in range(k):
        i = k - 1 - r
        if k > 2:
            drop.append(itemgetter(*range(i), *range(i + 1, k)))
        else:
            drop.append(lambda base, i=i: base[:i] + base[i + 1:])
    return drop


def _draw(n: int, k: int, cycles: int, rng: random.Random):
    """The cliques a member's generation draws, in order: the base of each
    k-tree vertex k + 1, ..., n - 4*cycles - 1, then the anchor of each
    gadget. With no cycles these are the draws of a k-tree on n vertices."""
    bases: list[tuple[int, ...]] = []
    drop = _droppers(k)
    getrandbits = rng.getrandbits
    m = k + 1  # the k-cliques so far
    for _ in range(k + 1, n - 4 * cycles):
        bits = m.bit_length()
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        if j > k:
            # _clique(bases, drop, j), inlined
            q, r = divmod(j - k - 1, k)
            bases.append(drop[r](bases[q]) + (q + k + 1,))
        else:
            bases.append(_clique(bases, drop, j))
        m += k
    anchors = [_clique(bases, drop, rng.randrange(m)) for _ in range(cycles)]
    return bases, anchors


def later_neighbours(n: int, k: int, cycles: int, seed: int) -> list[list[int]]:
    """For each vertex u of ``generate_almost_chordal(n, k, cycles, seed)``,
    or of ``generate_ktree(n, k, seed)`` when ``cycles`` is 0, its
    neighbours v > u in ascending order, read off the drawn cliques with no
    ``Graph`` and no edge list. The arguments must be ones those functions
    accept.
    """
    bases, anchors = _draw(n, k, cycles, random.Random(seed))
    later: list[list[int]] = [list(range(u + 1, k + 1)) for u in range(k + 1)]
    later += [[] for _ in range(k + 1, n)]
    for v, base in enumerate(bases, k + 1):
        for u in base:
            later[u].append(v)
    for p, anchor in zip(range(n - 4 * cycles, n, 4), anchors):
        later[p] += (p + 1, p + 3)
        later[p + 1].append(p + 2)
        later[p + 2].append(p + 3)
        for x in anchor:
            later[x] += range(p, p + 4)
    return later


def request_rng(seed: int) -> random.Random:
    """The generator that draws the weights, terminals and demands of the
    instance with this seed: seeded apart from the graph's
    ``random.Random(seed)``, so it reads none of the graph's words."""
    return random.Random(f"request:{seed}")


def draw_request(
    rng: random.Random, weights: tuple[int, ...], k: int, floor: int
) -> PartitionRequest:
    """k random terminals among the vertices that ``weights`` weighs, then
    demands uniform over the compositions of the total weight in which each
    demand is at least ``floor`` and its terminal's weight.

    The demands are stars and bars: with the slack the total less the
    floors, k - 1 of ``slots = slack + k - 1`` slots are bars, and each
    part gets its floor plus the slots between its bars. The bars are a
    uniform (k - 1)-subset drawn by Floyd's algorithm (Bentley and Floyd,
    "A sample of brilliance", CACM 30(9), 1987): for each ``top`` from
    ``slots - k + 2`` to ``slots``, draw ``randrange(top)`` and take it, or
    ``top - 1`` if it is already taken. That is exactly k - 1 draws,
    exact for any total, where ``rng.sample`` fails once the slots pass
    ``sys.maxsize``.
    """
    terminals = tuple(sorted(rng.sample(range(len(weights)), k)))
    floors = [max(weights[t], floor) for t in terminals]
    total, base = sum(weights), sum(floors)
    if base > total:
        raise DemandError(f"floors sum to {base}, above the total {total}")
    slots = total - base + k - 1
    bars: set[int] = set()
    for top in range(slots - k + 2, slots + 1):
        bar = rng.randrange(top)
        bars.add(top - 1 if bar in bars else bar)
    cuts = sorted(bars)
    demands = (f + hi - lo - 1 for f, lo, hi in zip(floors, [-1, *cuts], [*cuts, slots]))
    return PartitionRequest(terminals, tuple(demands))


def instance_text(n: int, k: int, cycles: int, seed: int,
                  max_weight: int, min_demand: int) -> str:
    """The instance file ``glpart generate`` writes for these flags: a
    member with ``cycles`` planted 4-cycles, or a k-tree when it is 0, with
    weights drawn from 1..``max_weight`` and a request from ``draw_request``
    with floor ``min_demand``, after a comment line naming the seed (the
    benchmark reads a member's ``cycles=`` and ``requested_cycles=``
    there). The arguments must be ones ``generate`` accepts."""
    rng = request_rng(seed)
    if cycles > 0:
        comment = f"seed={seed} k={k} cycles={cycles} requested_cycles={cycles}"
    else:
        comment = f"seed={seed} k={k} k-tree"
    if max_weight > 1:
        weights = tuple(rng.randint(1, max_weight) for _ in range(n))
    else:
        weights = (1,) * n
    request = draw_request(rng, weights, k, min_demand)
    # drawn last, so a refused request costs no graph
    later = later_neighbours(n, k, cycles, seed)
    return format_parts(n, later, weights, request, comment)


def generate_ktree(n: int, k: int, seed: int) -> Graph:
    """Random k-tree on n vertices: K_{k+1} plus n-k-1 attachments.

    Each new vertex is joined to a uniformly chosen existing k-clique.
    Deterministic for a fixed (n, k, seed).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if n < k + 1:
        raise ValueError(f"a {k}-tree needs at least {k + 1} vertices")
    later = later_neighbours(n, k, 0, seed)
    return Graph.from_edges(n, ((u, v) for u, vs in enumerate(later) for v in vs))


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
    later = later_neighbours(n, k, cycles, seed)
    return Graph.from_edges(n, ((u, v) for u, vs in enumerate(later) for v in vs))
