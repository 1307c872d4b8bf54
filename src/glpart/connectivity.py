"""Vertex connectivity checks.

``vertex_connectivity_at_least`` is the one entry point; it picks the method
from the input. Failures come with a concrete separator and a pair of
vertices it separates.

- Complete graphs have no separator at all: the verdict is k <= n - 1.
- Chordal graphs: kappa is the size of the smallest minimal separator,
  read off the later lists of the graph's own maximum cardinality search
  in O(n) (Blair & Peyton 1993): in selection order, a vertex whose count
  of already-selected neighbors does not exceed its predecessor's starts a
  new maximal clique, and those neighbors form a minimal separator, empty
  on a disconnected graph.
- Other graphs with k <= 2: kappa >= 2 iff the graph is connected and has
  no cut vertex, found by an iterative Hopcroft-Tarjan search in O(n + m).
- Other graphs with k >= 3 are cut into atoms along clique separators by
  one pass over the same search's elimination order and its elimination
  game (Tarjan, Discrete Math. 55, 1985), declined past m fill edges. The
  Python work falls only where g is not chordal: the game's fill is
  passed on from the search's violators alone (Rose, Tarjan & Lueker,
  SIAM J. Comput. 5(2), 1976), and the cut takes one position at a time
  only near the fill, cutting every other run of positions in bulk. Every
  later set is the search's own list, plus any fill the vertex received.
  kappa(g) >= k when every cut has at least k vertices and every
  non-complete atom is k-connected: removing fewer than k vertices leaves
  each atom connected and each cut, a clique shared by its two sides,
  non-empty. An atom that is ring + Q, an induced 4-cycle joined to a
  clique Q that sees all of it, is (|Q| + 2)-connected, which one count of
  neighbors inside the atom's vertex set shows; a graph with nothing cut is
  its own only atom and gets the same test. On every class member tried so
  far each non-complete atom is ring + Q, so no flow runs at all; any other
  atom gets the flow below on its induced subgraph, so soundness rests on
  the test alone. The 4-cycle catalog and the hole search read the same
  memoized atoms (``clique_decomposition``), which build each other atom's
  subgraph once for the flow, the catalog walk and the list of edges that
  get a hole search. A graph that is its own only atom gets a graph on its
  own sets, and gets no flow as an atom, since the fallback runs one on g.
- Fallback, and every rejection of a non-chordal input: Menger-based.
  Unit vertex capacities in the standard vertex-split flow network, whose
  residual arcs are read off the graph's adjacency sets and the flow
  itself, so no network is built; max-flow per non-adjacent pair with
  early exit at k, and the Esfahanian-Hakimi pair schedule that only needs
  a minimum-degree vertex against its non-neighbors plus non-adjacent
  pairs inside its neighborhood. The faster methods only ever accept, so
  every witness and reason text on a non-chordal input is the flow
  method's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, filterfalse, islice

from .chordal import McsSearch, mcs_search
from .graph import Edge, Graph, components_within, induced_subgraph


@dataclass(frozen=True)
class SeparatorWitness:
    """A vertex cut of size < k, ascending, together with a pair it
    separates."""

    separator: tuple[int, ...]
    separated_pair: tuple[int, int]


@dataclass(frozen=True)
class ConnectivityResult:
    """Outcome of a k-connectivity check; truthy iff the bound holds."""

    connected: bool
    witness: SeparatorWitness | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.connected


def _split_flow_mincut(g: Graph, s: int, t: int, limit: int):
    """Max s-t flow in g's vertex-split network, stopping at ``limit``.

    Returns None once ``limit`` vertex-disjoint paths exist, else the
    minimum vertex cut nearest s (ascending, excluding s and t).

    In the network each vertex x has an in-copy and an out-copy joined by
    an arc of capacity 1, and each edge uv gives arcs out(u) -> in(v) and
    out(v) -> in(u) of capacity n, which no flow fills; the source is
    out(s), the sink in(t). No network is built: the residual arcs are read
    off ``g.adj`` and ``into``, which maps each vertex other than t that
    carries flow to the one whose edge arc brings it. Every edge arc stays
    open, and in(v) has one residual arc out: to out(v) while v carries no
    flow, else back to out(into[v]). So the search queues out-copies only.
    Any maximum flow leaves the same vertices reachable from the source,
    so the cut does not depend on which augmenting paths were taken.
    """
    adj = g.adj
    into: dict[int, int] = {}
    for _ in range(limit):
        # in(v) reached from out(reach_in[v]), out(x) from in(reach_out[x]);
        # reach_in[v] == v is the split arc walked backward
        reach_in: dict[int, int] = {}
        reach_out = {s: s}
        queue = [s]
        for x in queue:
            if x in into and x not in reach_in:
                reach_in[x] = x
                y = into[x]
                if y not in reach_out:
                    reach_out[y] = x
                    queue.append(y)
            for v in adj[x]:
                if v not in reach_in:
                    reach_in[v] = x
                    if v == t:
                        break
                    y = into.get(v, v)
                    if y not in reach_out:
                        reach_out[y] = v
                        queue.append(y)
            else:
                continue
            break
        else:
            # saturated: vertices whose in-copy is reachable, out-copy not
            return tuple(sorted(reach_in.keys() - reach_out.keys()))
        x = reach_in[t]
        while x != s:
            v = reach_out[x]
            u = reach_in[v]
            if u == v:  # v gives its flow back
                del into[v]
            else:
                into[v] = u
            x = u
    return None


def _failure(sep: tuple[int, ...], s: int, t: int) -> ConnectivityResult:
    return ConnectivityResult(
        False, SeparatorWitness(sep, (s, t)),
        f"{len(sep)} vertices separate {s} from {t}",
    )


def _flow_connectivity(g: Graph, k: int) -> ConnectivityResult:
    """Per-pair max-flow decision of kappa(g) >= k for a non-complete graph.

    Each pair's flow starts from nothing and reads its residual arcs off
    ``g.adj``, so no network is built or copied. A pair's verdict and its
    cut nearest s are the same for every maximum flow, so the first pair
    that fails, and its witness, do not depend on how the flow is found.
    """
    deg_min = min(g.degree(v) for v in g.vertices())
    v = min(x for x in g.vertices() if g.degree(x) == deg_min)
    pairs = [(v, u) for u in g.vertices() if u != v and u not in g.adj[v]]
    pairs += [
        (a, b) for a, b in combinations(sorted(g.adj[v]), 2) if b not in g.adj[a]
    ]
    for s, t in pairs:
        cut = _split_flow_mincut(g, s, t, k)
        if cut is not None:
            return _failure(cut, s, t)
    return ConnectivityResult(True)


def _separator_below(search: McsSearch, k: int):
    """(x, madj(x) ascending) at the first label drop of ``search`` below
    k, or None.

    ``search`` is a chordal graph's maximum cardinality search;
    ``reversed(search.peo.order)`` is the selection order, and madj(x),
    the neighbors of x selected before it, is ``search.later[x]``. Where
    x's label, |madj(x)|, is no larger than its predecessor's, x starts a
    new maximal clique and madj(x) is a minimal separator; every minimal
    separator shows up this way.
    """
    later = search.later
    prev = -1
    for x in reversed(search.peo.order):
        label = len(later[x])
        if label <= prev and label < k:
            return x, tuple(sorted(later[x]))
        prev = label
    return None


def _kappa_up_to_2(g: Graph) -> int:
    """min(kappa(g), 2) for a graph on at least three vertices.

    One iterative Hopcroft-Tarjan depth-first search from vertex 0: 0 when
    it misses a vertex, 1 when it meets a cut vertex, else 2.
    """
    adj = g.adj
    disc = [0] * g.n  # discovery time, 0 while unvisited
    low = [0] * g.n
    disc[0] = low[0] = clock = 1
    root_children = 0
    cut = False
    stack = [(0, iter(adj[0]))]
    while stack:
        v, nbrs = stack[-1]
        for w in nbrs:
            if not disc[w]:
                clock += 1
                disc[w] = low[w] = clock
                stack.append((w, iter(adj[w])))
                break
            # the edge back to v's parent also lands here; it lowers low[v]
            # to the parent's time at most, which the cut test allows
            if disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if u == 0:
                    root_children += 1
                elif low[v] >= disc[u]:
                    cut = True
    if clock < g.n:
        return 0
    return 1 if cut or root_children > 1 else 2


def _violator_fill(g: Graph) -> tuple[dict[int, set[int]], set[int]] | None:
    """The elimination game of g's MCS order, played only where it adds fill.

    Eliminating the vertices in order and making each one's later
    neighbors a clique yields a chordal graph H with that order as a
    perfect elimination order. Its later sets follow by parent passing
    (Rose, Tarjan & Lueker, SIAM J. Comput. 5(2), 1976): each vertex v
    passes its later set less its earliest member p to p. A vertex whose
    later set is still g's passes nothing new unless it is one of the
    search's violators, so only violators and the vertices that receive
    fill are worked, in elimination order from the first violator. A
    vertex's later set in H is its search list plus the fill it received.

    Returns what the game adds: the fill each filled vertex received, which
    is what it misses in g of its later set in H, and the worked vertices
    whose later set passed fill on, so that p misses one of its members in
    g and it is no clique of g. None once the fill exceeds m edges, so the
    work stays linear.
    """
    search = mcs_search(g)
    violators = search.violators
    fill: dict[int, set[int]] = {}
    passed: set[int] = set()
    if not violators:
        return fill, passed
    adj, later = g.adj, search.later
    order, sigma = search.peo.order, search.peo.sigma
    budget = g.edge_count()
    pending = set(violators)
    worked = 0
    # pending only gains vertices after the one worked, which the lazy
    # filter still meets
    for v in filter(pending.__contains__,
                    islice(order, sigma[violators[0]] - 1, None)):
        # v's later set in H, with the earliest position in it: a filled
        # vertex has a parent too, since fill joins later vertices of one
        # component
        sep = set(later[v])
        first = sigma[later[v][-1]]
        got = fill.get(v)
        if got:
            sep |= got
            first = min(first, *map(sigma.__getitem__, got))
        p = order[first - 1]
        # the rest of sep is later than p, so what p misses in g is fill
        new = sep.difference(adj[p], (p,))
        if new:
            passed.add(v)
            got = fill.get(p)
            if got is None:
                fill[p] = new
                pending.add(p)
                budget -= len(new)
            else:
                budget += len(got)
                got |= new
                budget -= len(got)
            if budget < 0:
                return None
        worked += 1
        if worked == len(pending):
            break
    return fill, passed


@dataclass(frozen=True)
class Atom:
    """A non-complete atom of g's clique separator decomposition.

    ``ids`` are the atom's vertices of g, ascending. ``ring`` holds the two
    diagonals of the atom's ring when the atom is ring + Q: an induced
    4-cycle joined to a clique Q whose vertices see the whole ring. Such an
    atom has no hole, the ring is its only induced 4-cycle, and its
    connectivity is |Q| + 2, its size less two. Any other atom carries its
    induced subgraph ``sub``, whose vertex i is ``ids[i]``: for an atom
    holding all of g, a graph on g's own sets.
    """

    ids: tuple[int, ...]
    ring: tuple[Edge, Edge] | None
    sub: Graph | None


def _ring_diagonals(g: Graph, ids: tuple[int, ...]) -> tuple[Edge, Edge] | None:
    """The ring's two diagonals when g's atom ``ids`` is ring + Q, else None.

    With degrees counted inside the atom of n vertices, Q is the vertices of
    degree n - 1; the rest must be exactly four of degree n - 2. Each of
    those misses one vertex, one of the four since Q sees everything, so
    they pair off into a 4-cycle's two non-edges. A Q vertex on a chordless
    cycle would see all of it, so the ring is the atom's only chordless cycle.
    """
    atom = frozenset(ids)
    n = len(atom)
    # a fifth vertex short of degree n - 1 already rules it out
    ring = list(islice((v for v in ids if len(g.adj[v] & atom) < n - 1), 5))
    if len(ring) != 4 or any(len(g.adj[v] & atom) != n - 2 for v in ring):
        return None
    p, *rest = ring
    opposite = next(v for v in rest if v not in g.adj[p])
    q, r = (v for v in rest if v != opposite)
    return (p, opposite), (q, r)


def clique_decomposition(g: Graph) -> tuple[list[Atom], int]:
    """Each non-complete clique separator atom of g, and g's smallest cut,
    memoized.

    When nothing was cut, also when the fill is declined, g is its own only
    atom, holding all of g's vertices, and the smallest cut is g.n. Each
    atom that is not ring + Q gets its subgraph here, once, for the catalog
    walk, the hole search and the flow to share.
    """
    memo = g._memo
    if "atoms" not in memo:
        pieces, smallest = _clique_cut(g)
        atoms = []
        for ids in pieces:
            ring = _ring_diagonals(g, ids)
            sub = (None if ring else Graph(g.adj) if len(ids) == g.n
                   else induced_subgraph(g, ids)[0])
            atoms.append(Atom(ids, ring, sub))
        memo["atoms"] = atoms, smallest
    return memo["atoms"]


def _clique_cut(g: Graph) -> tuple[list[tuple[int, ...]], int]:
    """Tarjan's non-complete atoms of ``g`` along its elimination game, each
    as its ascending ids, and the smallest cut.

    In g's MCS elimination order, each x whose later neighbors S in H are a
    clique of ``g`` cuts off its component of the remaining graph minus S,
    unless that component and S are all that remains. A path from x to a
    later vertex outside S would put that vertex in S, so every later
    vertex stays; what remains at the end is the last atom. A cut atom is
    a clique iff x is alone in its component: cut-off paths shortcut along
    the clique S they hang from, so x alone has no fill in S, and the last
    eliminated y of a larger one would have had x and S as its later
    neighbors and been cut off before. The smallest cut is g.n when nothing
    is cut, also when the fill is declined.

    Only x and earlier vertices are ever cut off, so at position i the
    earlier vertices still alive number i - (n - left), for ``left``
    vertices alive. While that count is 0, x's component is {x}: each
    neighbor of x is later, and so in S, or already cut off. If x is not
    filled, S is x's search list ``later[x]``, else that list plus the fill
    x received. S is a clique unless it holds a filled vertex: H makes S a
    clique, so for u before v in S, v is a later neighbor of u in H, and a
    missing edge uv of g makes u filled. And {x} and S are all that remains
    only on the tail, the positions whose vertices see every later vertex,
    which hold the clique the search selected first. So each position
    before the tail that neither holds a filled vertex nor has one in its
    later set cuts off x alone, a complete atom: a run of them is cut in
    bulk, with no list built, and only its shortest list counts. ``_cut_at``
    takes the other positions one at a time, except that a vertex whose
    later set passed fill on, and so is no clique of g, stays alive with no
    step. Once the count is 0 on the tail, what remains is the tail's
    clique.
    """
    n = g.n
    game = _violator_fill(g)
    if game is None:
        return [tuple(g.vertices())], n
    fill, passed = game
    filled = fill.keys()
    search = mcs_search(g)
    order, sigma, later = search.peo.order, search.peo.sigma, search.later
    adj = g.adj
    tail = n
    while tail and len(later[order[tail - 1]]) == n - tail:
        tail -= 1
    # 1-based positions of the filled vertices and of their earlier neighbors
    steps = {sigma[x] for u in fill for x in adj[u] if sigma[x] < sigma[u]}
    steps.update(map(sigma.__getitem__, fill))
    stops = iter(sorted(steps))
    stop = -1
    dead: set[int] = set()
    left = smallest = n
    atoms: list[tuple[int, ...]] = []
    i = 0
    while True:
        # no vertex before position i is alive
        if i >= tail:
            return atoms, smallest  # what remains is the tail, a clique
        while stop < i:
            stop = next(stops, n + 1) - 1
        j = min(stop, tail)
        if j > i:
            run = order[i:j]
            smallest = min(smallest, *map(len, map(later.__getitem__, run)))
            dead.update(run)
            left -= j - i
            i = j
            continue
        # one position at a time until no earlier vertex is alive again; a
        # vertex whose later set passed fill on stays alive, with no step
        for x in filterfalse(passed.__contains__, islice(order, i, None)):
            i = sigma[x] - 1
            sep = later[x] + list(fill.get(x, ()))
            comp = _cut_at(g, x, sep, filled, dead, i + left > n)
            i += 1
            if comp is not None and len(comp) + len(sep) < left:
                dead.update(comp)
                left -= len(comp)
                if len(comp) > 1:
                    atoms.append(tuple(sorted((*comp, *sep))))
                smallest = min(smallest, len(sep))
            if i + left == n:
                break
        else:
            break
    rest = list(filterfalse(dead.__contains__, g.vertices()))
    if not g.is_clique(rest):
        atoms.append(tuple(rest))
    return atoms, smallest


def _cut_at(g: Graph, x: int, sep, filled, dead: set[int],
            search: bool) -> list[int] | None:
    """x's component of what is alive of g minus x's later set ``sep``, or
    None when ``sep`` is not a clique of g.

    Only a set holding a filled vertex is tested. The component is searched
    when ``search`` says an earlier vertex is alive; otherwise it is {x}.
    """
    if not filled.isdisjoint(sep) and not g.is_clique(sep):
        return None
    comp = [x]
    if search:
        seen = {x, *sep}
        for y in comp:
            for u in g.adj[y]:
                if u not in dead and u not in seen:
                    seen.add(u)
                    comp.append(u)
    return comp


def vertex_connectivity_at_least(g: Graph, k: int) -> ConnectivityResult:
    """Decide kappa(g) >= k; on failure return a separator witness.

    Complete graphs are decided by their size. A chordal g fails at its
    first minimal separator S smaller than k, separating S's generator
    from the smallest vertex it cannot reach in g - S. A non-chordal g is
    accepted by the cut-vertex search when k <= 2, else by its clique
    separator decomposition, ring + Q atoms by their size and the others by
    flow; the rest go to max-flow.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if g.n == 0:
        raise ValueError("graph must be non-empty")
    if g.is_complete():
        ok = k < g.n
        return ConnectivityResult(
            ok, None, "" if ok else f"complete graph on {g.n} vertices has no separator"
        )
    search = mcs_search(g)
    if search.witness is None:
        found = _separator_below(search, k)
        if found is None:
            return ConnectivityResult(True)
        x, sep = found
        comps = components_within(g, set(g.vertices()).difference(sep))
        # components come ordered by smallest member
        return _failure(sep, x, next(min(c) for c in comps if x not in c))
    if k <= 2:
        accepted = k <= _kappa_up_to_2(g)
    else:
        # sound by the module docstring's argument; a ring + Q atom is
        # (|atom| - 2)-connected, and g as its own only atom, unless ring
        # + Q, is left to the flow below
        atoms, cut = clique_decomposition(g)
        accepted = cut >= k and all(
            len(a.ids) - 2 >= k if a.ring
            else len(a.ids) < g.n and _flow_connectivity(a.sub, k)
            for a in atoms
        )
    if accepted:
        return ConnectivityResult(True)
    return _flow_connectivity(g, k)
