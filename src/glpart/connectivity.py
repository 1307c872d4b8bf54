"""Vertex connectivity checks.

``vertex_connectivity_at_least`` is the one entry point; it picks the method
from the input. Failures come with a concrete separator and a pair of
vertices it separates.

- Chordal graphs: kappa of a non-complete chordal graph is the size of its
  smallest minimal separator, and those separators can be read off a
  maximum cardinality search in O(n + m) (Blair & Peyton 1993). Walking the
  search's selection order, a vertex whose count of already-selected
  neighbors does not exceed its predecessor's starts a new maximal clique,
  and those earlier neighbors form a minimal separator. A disconnected
  graph shows up as an empty one.
- Other graphs: Menger-based. Unit vertex capacities via the standard
  vertex-split flow network, built once per call, max-flow per
  non-adjacent pair with early exit at k, and the Esfahanian-Hakimi pair
  schedule that only needs a minimum-degree vertex against its
  non-neighbors plus non-adjacent pairs inside its neighborhood.

Complete graphs have no separator under either method.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .chordal import Peo, compute_peo
from .graph import Graph


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


def _chordal_connectivity(g: Graph, k: int, peo: Peo) -> ConnectivityResult:
    """Decide kappa(g) >= k for a non-complete chordal graph from its MCS order.

    ``reversed(peo.order)`` is the search's selection order, and madj(x),
    the neighbors of x selected before it, are those with larger ``sigma``.
    Fails at the first minimal separator S smaller than k, separating x
    from the smallest vertex that x cannot reach in g - S.
    """
    sigma = peo.sigma
    prev = -1
    for x in reversed(peo.order):
        madj = [u for u in g.adj[x] if sigma[u] > sigma[x]]
        if len(madj) <= prev and len(madj) < k:
            sep = frozenset(madj)
            reached = {x}
            queue = deque([x])
            while queue:
                y = queue.popleft()
                for u in g.adj[y]:
                    if u not in reached and u not in sep:
                        reached.add(u)
                        queue.append(u)
            other = min(u for u in g.vertices() if u not in reached and u not in sep)
            return _failure(k, sep, x, other)
        prev = len(madj)
    return ConnectivityResult(True, k)


def vertex_connectivity_at_least(g: Graph, k: int) -> ConnectivityResult:
    """Decide kappa(g) >= k; on failure return a separator witness.

    Complete graphs have no separator at all, so for them the verdict is
    ``k <= n - 1`` with a textual reason and no witness. Chordal graphs are
    decided from their minimal separators, all others by max-flow.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    n = g.n
    if n == 0:
        raise ValueError("graph must be non-empty")
    if g.is_complete():
        ok = k <= n - 1
        return ConnectivityResult(
            ok, k, None, "" if ok else f"complete graph on {n} vertices has no separator"
        )
    peo = compute_peo(g)
    if isinstance(peo, Peo):
        return _chordal_connectivity(g, k, peo)
    return _flow_connectivity(g, k)
