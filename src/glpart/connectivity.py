"""Vertex connectivity checks.

``vertex_connectivity_at_least`` is the one entry point; it picks the method
from the input. Failures come with a concrete separator and a pair of
vertices it separates.

- Complete graphs have no separator at all: the verdict is k <= n - 1.
- Chordal graphs: kappa of a non-complete chordal graph is the size of its
  smallest minimal separator, and those separators can be read off a
  maximum cardinality search in O(n + m) (Blair & Peyton 1993). Walking the
  search's selection order, a vertex whose count of already-selected
  neighbors does not exceed its predecessor's starts a new maximal clique,
  and those earlier neighbors form a minimal separator. A disconnected
  graph shows up as an empty one.
- Other graphs with k <= 2: kappa >= 2 iff the graph is connected and has
  no cut vertex, found by an iterative Hopcroft-Tarjan search in O(n + m).
- Other graphs with k >= 3, through clique minimal separators (Berry,
  Pogorelcnik & Simonet, "An introduction to clique minimal separator
  decomposition", Algorithms 3(2), 2010). Adding one diagonal per induced
  4-cycle gives a triangulation H; when no cycle has both diagonals added,
  every fill edge is the only chord of a 4-cycle of H, so H is minimal
  (Rose, Tarjan & Lueker 1976). The clique minimal separators of G are the
  minimal separators of H that are cliques in G, and one pass over H's
  elimination order cuts G along them into atoms. kappa(G) >= k when
  every such separator has at least k vertices and every non-complete atom
  is k-connected; on class members an atom is a 4-cycle plus the k-clique
  it hangs from, so the flow below only runs on k + 4 vertices.
- Fallback, and every rejection of the two methods above: Menger-based.
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

from .c4 import enumerate_induced_c4
from .chordal import Peo, compute_peo
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


def _chordal_connectivity(g: Graph, k: int, peo: Peo) -> ConnectivityResult:
    """Decide kappa(g) >= k for a chordal graph from its certified MCS order.

    Complete graphs have no separator at all, so for them the verdict is
    ``k <= n - 1`` with a textual reason and no witness. Otherwise fails at
    the first minimal separator S smaller than k, separating its generator
    x from the smallest vertex that x cannot reach in g - S.
    """
    if g.is_complete():
        n = g.n
        ok = k <= n - 1
        return ConnectivityResult(
            ok, k, None, "" if ok else f"complete graph on {n} vertices has no separator"
        )
    for x, madj in _minimal_separators(g, peo):
        if len(madj) < k:
            sep = frozenset(madj)
            comps = components_within(g, (v for v in g.vertices() if v not in sep))
            # components come ordered by smallest member
            other = next(min(c) for c in comps if x not in c)
            return _failure(k, sep, x, other)
    return ConnectivityResult(True, k)


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


def _clique_atoms(g: Graph, k: int) -> list[list[int]] | None:
    """Atoms of the clique minimal separator decomposition of ``g``, or None.

    H is ``g`` plus the diagonal ``(c[0], c[2])`` of each induced 4-cycle
    of ``g``. None when H is not chordal, when some cycle has its other
    diagonal filled as well (H may then not be minimal), or when a minimal
    separator of H has fewer than k vertices, which also separates ``g``. Otherwise the separators are read off H's
    search order and, in elimination order, each one that is a clique of
    ``g`` cuts off the component of the remaining graph that holds its
    generating vertex. That component is removed, so each vertex is cut
    off once.
    """
    catalog = enumerate_induced_c4(g)
    fill = {(c[0], c[2]) for c in catalog}
    if any((c[1], c[3]) in fill for c in catalog):
        return None
    nbrs = [set(s) for s in g.adj]
    for a, b in fill:
        nbrs[a].add(b)
        nbrs[b].add(a)
    h = Graph(tuple(frozenset(s) for s in nbrs))
    peo = compute_peo(h)
    if not isinstance(peo, Peo):
        return None
    seps = list(_minimal_separators(h, peo))
    if any(len(sep) < k for _, sep in seps):
        return None

    adj = g.adj
    alive = [True] * g.n
    atoms = []
    for x, sep in reversed(seps):
        members = set(sep)
        if any(len(adj[s] & members) < len(sep) - 1 for s in sep):
            continue  # not a clique of g
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


def _clique_separator_accepts(g: Graph, k: int) -> bool:
    """True when the clique separator decomposition proves kappa(g) >= k.

    False means undecided. Every separator cut along has at least k
    vertices, so g - T is connected for |T| < k as soon as every atom minus
    T is; complete atoms have more than |T| vertices, the others must be
    k-connected.
    """
    atoms = _clique_atoms(g, k)
    if atoms is None or len(atoms) == 1:
        # a single atom is g itself, which the caller's flow decides anyway
        return False
    for atom in atoms:
        members = set(atom)
        twice_edges = sum(len(g.adj[v] & members) for v in atom)
        if twice_edges == len(atom) * (len(atom) - 1):
            continue
        if not _flow_connectivity(induced_subgraph(g, atom)[0], k):
            return False
    return True


def vertex_connectivity_at_least(g: Graph, k: int) -> ConnectivityResult:
    """Decide kappa(g) >= k; on failure return a separator witness.

    Complete graphs are decided by their size and other chordal graphs from
    their minimal separators. Other graphs are accepted by the cut-vertex
    search (k <= 2) or the clique separator decomposition (k >= 3) where
    those succeed; the rest go to max-flow.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if g.n == 0:
        raise ValueError("graph must be non-empty")
    peo = compute_peo(g)
    if isinstance(peo, Peo):
        return _chordal_connectivity(g, k, peo)
    if k <= 2:
        accepted = k <= _kappa_up_to_2(g)
    else:
        accepted = _clique_separator_accepts(g, k)
    if accepted:
        return ConnectivityResult(True, k)
    return _flow_connectivity(g, k)
