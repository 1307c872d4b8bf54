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
terminals and demands. CPython's ``random.Random`` is MT19937 (Matsumoto
and Nishimura, ACM TOMACS 8(1), 1998), which yields 32-bit words.
``getrandbits(b)`` with b <= 32 takes one word and returns
``word >> (32 - b)``; ``getrandbits(32 * c)`` takes c words and puts word
i at bits 32i..32i + 31. ``randrange(m)`` (``_randbelow_with_getrandbits``)
returns the first ``getrandbits(b)`` value below m, with
b = ``m.bit_length()``. Two routines make those ``getrandbits`` calls
themselves, and leave the values and the generator's state afterwards
those of ``randrange``:

- ``_draw`` draws the index of each new vertex's base inline, one
  ``getrandbits(b)`` call per raw draw;
- ``_draws_below`` draws many values below one m in chunks: below 256 one
  ``getrandbits(32 * c)`` call gives c raw draws, one per word's top
  byte, and above it each raw draw is one ``getrandbits(b)`` call.

The tests hold both to ``randrange``'s values and ``getstate()``, and the
equivalence was checked under CPython 3.10, 3.11, 3.12 and 3.13.
``instance_text`` draws what ``glpart generate`` writes: the graph, then
the weights, the terminals and the demands.

Every random choice of the graph is made once, by ``_draw``, which returns
the drawn cliques: each k-tree vertex's base, then each gadget's anchor.
They are read one way, by ``later_neighbours``, which gives each vertex u
its neighbours v > u: ``generate`` writes those lists, and both graph
builders fill each neighbour set from them in the order
``instances.parse_instance`` fills it from that file, so a library graph
iterates exactly as its file parses (``instances`` says why that order
matters).

Each vertex's list comes out ascending, with no sort, so its lines are the
ones ``Graph.edges()`` gives:

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
from collections import Counter
from itertools import chain, repeat
from operator import add, itemgetter

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
    and ``itemgetter`` would return a scalar or fail."""
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


# the most raw draws one chunk of ``_draws_below`` asks for
_CHUNK = 1 << 16

# the most parts ``_compose_demands`` counts with one ``bytes.count`` pass
# each; one ``Counter`` over the chunk caught up at 56 to 76 parts for
# 2 * 10**4 to 10**6 units
_COUNT_PASSES = 48


def _draws_below(rng: random.Random, m: int, count: int, start: int = 0):
    """Yield chunks of ``count`` values in all, each ``start`` (0 or 1)
    plus the value ``rng.randrange(m)`` would return, with the generator
    left as that many ``randrange`` calls leave it.

    With c values still owed, a chunk makes min(c, ``_CHUNK``) raw draws
    of ``getrandbits(b)``, b = ``m.bit_length()``, and keeps those below m,
    in order, as ``randrange`` would (see the module docstring). At most c
    of them fall below m, so each raw draw is one that the ``randrange``
    calls still owed would have made, and none comes after the last
    accepted value: the values and the state match. A chunk holds at most
    ``_CHUNK`` values, whatever ``count`` is.

    When b <= 8, that is m <= 255, a chunk is ``bytes`` and its raw draws
    are one ``getrandbits(32 * c)`` call: in ``to_bytes(4 * c, "little")``
    byte 4i + 3 is the top byte of word i, ``[3::4]`` keeps those c bytes,
    in draw order, and top byte t gives the raw draw ``t >> (8 - b)``. One
    ``bytes.translate`` maps each kept byte to its value plus ``start`` and
    deletes the bytes ``>= m << (8 - b)``, whose draws are at least m. The
    call takes the words that c ``getrandbits(b)`` calls take, no more, so
    the state matches too. For m > 255 a value does not fit a byte, and a
    chunk is a list whose raw draws are one ``getrandbits(b)`` call each,
    made in C.
    """
    bits = m.bit_length()
    if bits <= 8:
        shift = 8 - bits
        cut = m << shift
        table = bytes([start + (t >> shift) if t < cut else 0 for t in range(256)])
        rejected = bytes(range(cut, 256))
        getrandbits = rng.getrandbits
        while count > 0:
            c = min(count, _CHUNK)
            top = getrandbits(32 * c).to_bytes(4 * c, "little")[3::4]
            chunk = top.translate(table, rejected)
            count -= len(chunk)
            yield chunk
        return
    while count > 0:
        raw = map(rng.getrandbits, repeat(bits, min(count, _CHUNK)))
        chunk = list(filter(m.__gt__, raw))
        count -= len(chunk)
        yield list(map(start.__add__, chunk)) if start else chunk


def _compose_demands(
    rng: random.Random, k: int, total: int, floors: list[int]
) -> list[int]:
    """Random composition of ``total`` with per-part floors.

    Each unit above the floors goes to part ``rng.randrange(k)``, one
    draw per unit in order. ``_draws_below`` makes those draws in chunks
    of at most ``_CHUNK`` raw draws, and this adds up each chunk's parts
    before the next chunk is drawn, so memory stays O(k + ``_CHUNK``) for
    any total. A chunk never asks for more raw draws than units are still
    owed, so none is made after the last unit's value, and the demands and
    the generator's state are those of one ``randrange(k)`` call per unit.
    For k <= 255 each chunk is ``bytes`` drawn 32-bit words at a time (see
    ``_draws_below``); larger k draws once per raw value. Counting costs
    k passes of ``bytes.count`` against one ``Counter`` over the chunk, so
    for k <= ``_COUNT_PASSES`` part p gets ``chunk.count(p)`` units and
    above it a ``Counter`` adds them up. The time still grows with
    ``total - sum(floors)``.
    """
    base = sum(floors)
    if base > total:
        raise DemandError(f"floors sum to {base}, above the total {total}")
    demands = list(floors)
    for chunk in _draws_below(rng, k, total - base):
        if k <= _COUNT_PASSES:
            demands = list(map(add, demands, map(chunk.count, range(k))))
        else:
            for part, units in Counter(chunk).items():
                demands[part] += units
    return demands


def draw_request(
    rng: random.Random, weights: tuple[int, ...], k: int, floor: int
) -> PartitionRequest:
    """k random terminals among the vertices that ``weights`` weighs, then a
    random composition of the total weight in which each demand is at
    least ``floor`` and its terminal's weight."""
    terminals = tuple(sorted(rng.sample(range(len(weights)), k)))
    floors = [max(weights[t], floor) for t in terminals]
    demands = _compose_demands(rng, k, sum(weights), floors)
    return PartitionRequest(terminals, tuple(demands))


def instance_text(n: int, k: int, cycles: int, seed: int,
                  max_weight: int, min_demand: int) -> str:
    """The instance file ``glpart generate`` writes for these flags: a
    member with ``cycles`` planted 4-cycles, or a k-tree when it is 0, with
    weights drawn from 1..``max_weight`` and a request from ``draw_request``
    with floor ``min_demand``, after a comment line naming the seed (the
    benchmark reads a member's ``cycles=`` and ``requested_cycles=``
    there). The arguments must be ones ``generate`` accepts."""
    later = later_neighbours(n, k, cycles, seed)
    # ``later_neighbours`` seeds its own ``Random(seed)`` for the graph, so
    # the graph's draws and the weight, terminal and demand draws below read
    # the same 32-bit words: the first base index and the first weight both
    # come from word 0 (``oracle-compare`` does the same with its trial
    # generator). Drawing them apart would change every generated file.
    rng = random.Random(seed)
    if cycles > 0:
        comment = f"seed={seed} k={k} cycles={cycles} requested_cycles={cycles}"
    else:
        comment = f"seed={seed} k={k} k-tree"
    if max_weight > 1:
        # rng.randint(1, w) is 1 + rng.randrange(w)
        weights = tuple(chain.from_iterable(_draws_below(rng, max_weight, n, 1)))
    else:
        weights = (1,) * n
    request = draw_request(rng, weights, k, min_demand)
    return format_parts(n, later, weights, request, comment)


def _graph(later: list[list[int]]) -> Graph:
    """The graph in which vertex u has the larger neighbours ``later[u]``,
    each neighbour set filled in the order ``instances.parse_instance``
    fills it from the lines ``format_parts`` writes for ``later``."""
    nbrs: list[set[int]] = [set() for _ in later]
    for u, vs in enumerate(later):
        nbrs[u].update(vs)
        for v in vs:
            nbrs[v].add(u)
    return Graph(tuple(map(frozenset, nbrs)))


def generate_ktree(n: int, k: int, seed: int) -> Graph:
    """Random k-tree on n vertices: K_{k+1} plus n-k-1 attachments.

    Each new vertex is joined to a uniformly chosen existing k-clique.
    Deterministic for a fixed (n, k, seed).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if n < k + 1:
        raise ValueError(f"a {k}-tree needs at least {k + 1} vertices")
    return _graph(later_neighbours(n, k, 0, seed))


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
    return _graph(later_neighbours(n, k, cycles, seed))
