"""Vertex connectivity checks.

``vertex_connectivity_at_least`` is the one entry point; it picks the method
from the input. Failures come with a concrete separator and a pair of
vertices it separates.

- Complete graphs have no separator at all: the verdict is k <= n - 1.
- Chordal graphs: kappa is the size of the smallest minimal separator,
  read off the labels of the graph's own maximum cardinality search in
  O(n) (Blair & Peyton 1993): in selection order, a vertex whose count of
  already-selected neighbors does not exceed its predecessor's starts a
  new maximal clique, and those neighbors form a minimal separator, empty
  on a disconnected graph.
- Other graphs with k <= 2: kappa >= 2 iff the graph is connected and has
  no cut vertex, found by an iterative Hopcroft-Tarjan search in O(n + m).
- Other graphs with k >= 3 are cut into atoms along clique separators by
  one pass over the same search's elimination order and its elimination
  game (Tarjan, Discrete Math. 55, 1985; Tarjan & Yannakakis, SIAM J.
  Comput. 13(3), 1984), in O(n + m + fill), declined past m fill edges.
  kappa(g) >= k when every cut has at least k vertices and every
  non-complete atom is k-connected: removing fewer than k vertices leaves
  each atom connected and each cut, a clique shared by its two sides,
  non-empty. An atom that is ring + Q, an induced 4-cycle joined to a
  clique Q that sees all of it, is (|Q| + 2)-connected, which one count of
  neighbors inside the atom's vertex set shows; a graph with nothing cut is
  its own only atom and gets the same test. On every class member tried so
  far each non-complete atom is ring + Q, so no flow runs at all; any other
  atom gets the flow below on its induced subgraph, the one place an atom's
  subgraph is built, so soundness rests on the test alone. Recognition
  reads the same memoized atoms (``clique_decomposition``): the rings are
  its 4-cycle catalog, and only edges inside other atoms get a hole search.
- Fallback, and every rejection of a non-chordal input: Menger-based.
  Unit vertex capacities via the standard vertex-split flow network,
  built once per call, max-flow per non-adjacent pair with early exit at
  k, and the Esfahanian-Hakimi pair schedule that only needs a
  minimum-degree vertex against its non-neighbors plus non-adjacent pairs
  inside its neighborhood. The faster methods only ever accept, so every
  witness and reason text on a non-chordal input is the flow method's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .chordal import McsSearch, mcs_order, mcs_search
from .graph import Edge, Graph, components_within, induced_subgraph


@dataclass(frozen=True)
class SeparatorWitness:
    """A vertex cut of size < k together with a pair it separates."""

    separator: frozenset[int]
    separated_pair: tuple[int, int]


@dataclass(frozen=True)
class ConnectivityResult:
    """Outcome of a k-connectivity check; truthy iff the bound holds."""

    connected: bool
    k: int
    witness: SeparatorWitness | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.connected


def _split_network(g: Graph) -> list[dict[int, int]]:
    """Residual capacities of the vertex-split flow network of ``g``.

    Node 2x is the in-copy of x, 2x+1 the out-copy. Split arcs have unit
    capacity; every arc's reverse is present, so augmenting never adds keys
    and a copy of this network keeps its iteration order.
    """
    n = g.n
    cap: list[dict[int, int]] = [dict() for _ in range(2 * n)]
    for x in g.vertices():
        cap[2 * x][2 * x + 1] = 1
        cap[2 * x + 1][2 * x] = 0
    # edge arcs get capacity n so any finite min cut uses split arcs only,
    # which is what the separator extraction below reads off
    for u, v in g.edges():
        for a, b in ((u, v), (v, u)):
            cap[2 * a + 1][2 * b] = n
            cap[2 * b].setdefault(2 * a + 1, 0)
    return cap


def _split_flow_mincut(base: list[dict[int, int]], s: int, t: int, limit: int):
    """Max s-t flow in a copy of the split network ``base``, stopping at ``limit``.

    Returns None once ``limit`` vertex-disjoint paths exist, else the
    minimum vertex cut (a set of vertices, excluding s and t).
    """
    cap = [d.copy() for d in base]
    source = 2 * s + 1
    sink = 2 * t
    flow = 0
    while flow < limit:
        parent: dict[int, int] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            x = queue.popleft()
            for y, c in cap[x].items():
                if c > 0 and y not in parent:
                    parent[y] = x
                    queue.append(y)
        if sink not in parent:
            break
        y = sink
        while y != source:
            x = parent[y]
            cap[x][y] -= 1
            cap[y][x] += 1
            y = x
        flow += 1
    if flow >= limit:
        return None
    # saturated: vertices whose in-copy is reachable but out-copy is not
    reach = {source}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y, c in cap[x].items():
            if c > 0 and y not in reach:
                reach.add(y)
                queue.append(y)
    return frozenset(
        x for x in range(len(base) // 2)
        if 2 * x in reach and 2 * x + 1 not in reach
    )


def _failure(k: int, sep: frozenset[int], s: int, t: int) -> ConnectivityResult:
    return ConnectivityResult(
        False, k, SeparatorWitness(sep, (s, t)),
        f"{len(sep)} vertices separate {s} from {t}",
    )


def _flow_connectivity(g: Graph, k: int) -> ConnectivityResult:
    """Per-pair max-flow decision of kappa(g) >= k for a non-complete graph."""
    deg_min = min(g.degree(v) for v in g.vertices())
    v = min(x for x in g.vertices() if g.degree(x) == deg_min)
    pairs = [(v, u) for u in g.vertices() if u != v and u not in g.adj[v]]
    pairs += [
        (a, b) for a, b in combinations(sorted(g.adj[v]), 2) if b not in g.adj[a]
    ]
    base = _split_network(g)
    for s, t in pairs:
        cut = _split_flow_mincut(base, s, t, k)
        if cut is not None:
            return _failure(k, cut, s, t)
    return ConnectivityResult(True, k)


def _separator_below(g: Graph, search: McsSearch, k: int):
    """(x, madj(x)) at the first label drop of ``search`` below k, or None.

    ``g`` is chordal and ``search`` its maximum cardinality search;
    ``reversed(search.peo.order)`` is the selection order, and madj(x),
    the neighbors of x selected before it, are those with larger
    ``sigma``. Where x's label, |madj(x)|, is no larger than its
    predecessor's, x starts a new maximal clique and madj(x) is a minimal
    separator; every minimal separator shows up this way. Only the
    returned madj(x) is built.
    """
    labels, sigma = search.labels, search.peo.sigma
    prev = -1
    for x in reversed(search.peo.order):
        label = labels[x]
        if label <= prev and label < k:
            return x, frozenset(u for u in g.adj[x] if sigma[u] > sigma[x])
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


def _elimination_fill(g: Graph) -> list[list[int]] | None:
    """Each vertex's later neighbors in the elimination game of g's MCS order.

    Eliminating the vertices in order and making each one's later
    neighbors a clique yields a chordal graph H with that order as a
    perfect elimination order. Tarjan & Yannakakis compute it in
    O(n + m + fill): the earlier neighbors of w in H are the vertices met
    by walking ``follow`` pointers, each vertex's first later neighbor in
    H, from each earlier neighbor of w in ``g``. Each list comes in
    elimination order. None once the fill exceeds m edges, so the walk
    stays linear.
    """
    budget = g.edge_count()
    later: list[list[int]] = [[] for _ in g.vertices()]
    follow = list(range(g.n))
    mark = [-1] * g.n  # the last position whose walk met the vertex
    for i, w in enumerate(mcs_order(g)):
        mark[w] = i
        # every walk stays on eliminated vertices, so -1 marks a later one
        for x in (v for v in g.adj[w] if mark[v] >= 0):
            while mark[x] < i:
                mark[x] = i
                later[x].append(w)
                if w not in g.adj[x]:
                    budget -= 1
                    if budget < 0:
                        return None
                x = follow[x]
            if follow[x] == x:
                follow[x] = w
    return later


@dataclass(frozen=True)
class Atom:
    """A non-complete atom of g's clique separator decomposition.

    ``ids`` are the atom's vertices of g, ascending. ``ring`` holds the two
    diagonals of the atom's ring when the atom is ring + Q: an induced
    4-cycle joined to a clique Q whose vertices see the whole ring. Such an
    atom has no hole, the ring is its only induced 4-cycle, and its
    connectivity is |Q| + 2, its size less two.
    """

    ids: tuple[int, ...]
    ring: tuple[Edge, Edge] | None


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
    ring = [v for v in ids if len(g.adj[v] & atom) < n - 1]
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
    atom, holding all of g's vertices, and the smallest cut is g.n.
    """
    memo = g._memo
    if "atoms" not in memo:
        atoms, smallest = _clique_atoms(g)
        pieces = [tuple(sorted(a)) for a, clique in atoms if not clique]
        memo["atoms"] = [Atom(ids, _ring_diagonals(g, ids)) for ids in pieces], smallest
    return memo["atoms"]


def _clique_atoms(g: Graph) -> tuple[list[tuple[list[int], bool]], int]:
    """Tarjan's atoms of ``g`` along its elimination game, and the smallest cut.

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

    A vertex u is filled when some later neighbor of u in H is not its
    neighbor in g. S is tested for a clique only when one of its members is
    filled; otherwise it is one. H makes S a clique, so for u before v in
    S, v is a later neighbor of u in H; a missing edge uv of g makes u
    filled.
    """
    later = _elimination_fill(g)
    alive = [True] * g.n
    left = smallest = g.n
    atoms = []
    if later is not None:
        filled = [not nbrs.issuperset(s) for nbrs, s in zip(g.adj, later)]
    for x in () if later is None else mcs_order(g):
        sep = later[x]
        if any(filled[u] for u in sep) and not g.is_clique(sep):
            continue
        seen = {x, *sep}
        comp = [x]
        for y in comp:
            for u in g.adj[y]:
                if alive[u] and u not in seen:
                    seen.add(u)
                    comp.append(u)
        if len(seen) < left:
            for v in comp:
                alive[v] = False
            left -= len(comp)
            atoms.append((comp + sep, len(comp) == 1))
            smallest = min(smallest, len(sep))
    rest = [v for v in g.vertices() if alive[v]]
    return [*atoms, (rest, g.is_clique(rest))], smallest


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
            ok, k, None, "" if ok else f"complete graph on {g.n} vertices has no separator"
        )
    search = mcs_search(g)
    if search.witness is None:
        found = _separator_below(g, search, k)
        if found is None:
            return ConnectivityResult(True, k)
        x, sep = found
        comps = components_within(g, (v for v in g.vertices() if v not in sep))
        # components come ordered by smallest member
        return _failure(k, sep, x, next(min(c) for c in comps if x not in c))
    if k <= 2:
        accepted = k <= _kappa_up_to_2(g)
    else:
        # sound by the module docstring's argument; a ring + Q atom is
        # (|atom| - 2)-connected, and g as its own only atom, unless ring
        # + Q, is left to the flow below
        atoms, cut = clique_decomposition(g)
        accepted = cut >= k and all(
            len(a.ids) - 2 >= k if a.ring
            else len(a.ids) < g.n
            and _flow_connectivity(induced_subgraph(g, a.ids)[0], k)
            for a in atoms
        )
    if accepted:
        return ConnectivityResult(True, k)
    return _flow_connectivity(g, k)
