"""Vertex connectivity checks.

``vertex_connectivity_at_least`` is the one entry point; it picks the method
from the input. Failures come with a concrete separator and a pair of
vertices it separates.

- Complete graphs have no separator at all: the verdict is k <= n - 1.
- Other graphs with k <= 2 that are not chordal: kappa >= 2 iff the graph
  is connected and has no cut vertex, found by an iterative Hopcroft-Tarjan
  search in O(n + m).
- Every other graph is read through one triangulation H: g itself when g
  is chordal, else g plus the elimination-game fill of g's maximum
  cardinality search order (Tarjan & Yannakakis, SIAM J. Comput. 13(3),
  1984), declined once the fill exceeds m edges. The minimal separators
  of H are read off H's own search in O(n + m) (Blair & Peyton 1993): in
  selection order, a vertex whose count of already-selected neighbors
  does not exceed its predecessor's starts a new maximal clique, and
  those neighbors form a minimal separator, empty on a disconnected H.
  Each also separates g. On a chordal g, kappa is the smallest one's size.
  Otherwise H need not be minimal, which only coarsens the clique
  separator decomposition (Berry, Pogorelcnik & Simonet, Algorithms 3(2),
  2010): one pass over H's elimination order cuts g into atoms along the
  separators of H that are cliques of g. kappa(g) >= k when every
  separator of H has at least k vertices and every non-complete atom is
  k-connected; on class members an atom is a 4-cycle plus the k-clique it
  hangs from, so the flow below only runs on k + 4 vertices. g keeps its
  separators and atoms in its memo; recognition reads the same atoms.
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

from .chordal import Peo, compute_peo, mcs_order
from .graph import Graph, components_within, induced_subgraph


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


def _minimal_separators(g: Graph, peo: Peo):
    """Yield (x, madj(x)) at each label drop of the search behind ``peo``.

    ``g`` is chordal and ``peo`` its MCS order. ``reversed(peo.order)`` is
    the search's selection order, and madj(x), the neighbors of x selected
    before it, are those with larger ``sigma``. Where madj(x) is no larger
    than its predecessor's, x starts a new maximal clique and madj(x) is a
    minimal separator; every minimal separator shows up this way.
    """
    sigma = peo.sigma
    prev = -1
    for x in reversed(peo.order):
        madj = [u for u in g.adj[x] if sigma[u] > sigma[x]]
        if len(madj) <= prev:
            yield x, madj
        prev = len(madj)


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


def _elimination_fill(g: Graph) -> Graph | None:
    """``g`` plus the elimination-game fill of its MCS order, or None.

    Eliminating the vertices in order and making each one's later
    neighbors a clique yields a chordal graph with that order as a perfect
    elimination order. Tarjan & Yannakakis compute it in O(n + m + fill):
    the earlier neighbors of w in the filled graph are the vertices met by
    walking ``follow`` pointers, each vertex's first later neighbor in the
    filled graph, from each earlier neighbor of w in ``g``. None once the
    fill exceeds m edges, so the walk stays linear.
    """
    budget = g.edge_count()
    nbrs = [set(s) for s in g.adj]
    follow = list(range(g.n))
    mark = [-1] * g.n  # the last position whose walk met the vertex
    for i, w in enumerate(mcs_order(g)):
        mark[w] = i
        # every walk stays on eliminated vertices, so -1 marks a later one
        for x in (v for v in g.adj[w] if mark[v] >= 0):
            while mark[x] < i:
                mark[x] = i
                if w not in nbrs[x]:
                    budget -= 1
                    if budget < 0:
                        return None
                    nbrs[x].add(w)
                    nbrs[w].add(x)
                x = follow[x]
            if follow[x] == x:
                follow[x] = w
    return Graph(tuple(frozenset(s) for s in nbrs))


def _separators(g: Graph) -> list:
    """The label-drop pairs of g's triangulation H (none if declined), memoized."""
    memo = g._memo
    if "seps" not in memo:
        h = g if isinstance(compute_peo(g), Peo) else _elimination_fill(g)
        memo["seps"] = [] if h is None else list(_minimal_separators(h, compute_peo(h)))
    return memo["seps"]


def clique_atoms(g: Graph) -> list[list[int]]:
    """The atoms of g cut along the clique separators of H, memoized."""
    memo = g._memo
    if "atoms" not in memo:
        memo["atoms"] = _clique_atoms(g, _separators(g))
    return memo["atoms"]


def _clique_atoms(g: Graph, seps) -> list[list[int]]:
    """Atoms of ``g`` cut along the separators of its triangulation H.

    ``seps`` are the label-drop pairs (x, madj(x)) of H in selection order.
    In elimination order, each separator that is a clique of ``g`` cuts off
    the component of the remaining graph that holds its generating vertex,
    which leaves that graph; what remains at the end is the last atom.
    """
    adj = g.adj
    alive = [True] * g.n
    atoms = []
    for x, sep in reversed(seps):
        members = set(sep)
        if not g.is_clique(members):
            continue
        # x and sep are still in place: the component cut off at an
        # earlier generator x' lies in H - madj(x'), where a perfect
        # elimination order leaves only vertices eliminated before x'
        comp = [x]
        alive[x] = False
        for y in comp:
            for u in adj[y]:
                if alive[u] and u not in members:
                    alive[u] = False
                    comp.append(u)
        atoms.append(comp + sep)
    atoms.append([v for v in g.vertices() if alive[v]])
    return atoms


def vertex_connectivity_at_least(g: Graph, k: int) -> ConnectivityResult:
    """Decide kappa(g) >= k; on failure return a separator witness.

    Complete graphs are decided by their size, and a non-chordal graph
    with k <= 2 is accepted by the cut-vertex search. Every other graph is
    read through its triangulation H. A chordal g fails at H's first
    separator S smaller than k, separating its generator from the smallest
    vertex it cannot reach in g - S; a non-chordal one is accepted by its
    clique separator decomposition. The rest go to max-flow.
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
    chordal = isinstance(compute_peo(g), Peo)
    if not chordal and k <= 2:
        accepted = k <= _kappa_up_to_2(g)
    else:
        small = next(((x, sep) for x, sep in _separators(g) if len(sep) < k), None)
        if chordal:
            if small is None:
                return ConnectivityResult(True, k)
            x, sep = small[0], frozenset(small[1])
            comps = components_within(g, (v for v in g.vertices() if v not in sep))
            # components come ordered by smallest member
            other = next(min(c) for c in comps if x not in c)
            return _failure(k, sep, x, other)
        # Every separator cut along has at least k vertices, so g - T is
        # connected for |T| < k as soon as every atom minus T is; complete
        # atoms have more than |T| vertices, the others must be k-connected.
        # One atom (also when the fill is declined) is g, left to the flow.
        atoms = [] if small else clique_atoms(g)
        accepted = len(atoms) > 1 and all(
            g.is_clique(a) or _flow_connectivity(induced_subgraph(g, a)[0], k)
            for a in atoms
        )
    if accepted:
        return ConnectivityResult(True, k)
    return _flow_connectivity(g, k)
