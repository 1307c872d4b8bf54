"""Vertex connectivity checks.

The k-connectivity test is Menger-based: unit vertex capacities via the
standard vertex-split flow network, max-flow per non-adjacent pair with early
exit at k, and the pair schedule trick that only needs a minimum-degree
vertex against its non-neighbors plus non-adjacent pairs inside its
neighborhood. Failures come with a concrete separator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

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


def _split_flow_mincut(g: Graph, s: int, t: int, limit: int):
    """Max s-t flow in the vertex-split network, stopping at ``limit``.

    Returns None once ``limit`` vertex-disjoint paths exist, else the
    minimum vertex cut (a set of vertices, excluding s and t).

    Node 2x is the in-copy of x, 2x+1 the out-copy. Every arc has unit
    capacity; residual capacities live in per-node dicts.
    """
    source = 2 * s + 1
    sink = 2 * t
    cap: list[dict[int, int]] = [dict() for _ in range(2 * g.n)]
    for x in g.vertices():
        cap[2 * x][2 * x + 1] = 1
        cap[2 * x + 1][2 * x] = 0
    # edge arcs get capacity n so any finite min cut uses split arcs only,
    # which is what the separator extraction below reads off
    for u, v in g.edges():
        for a, b in ((u, v), (v, u)):
            cap[2 * a + 1][2 * b] = g.n
            cap[2 * b].setdefault(2 * a + 1, 0)

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
            cap[y][x] = cap[y].get(x, 0) + 1
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
    cut = frozenset(
        x for x in g.vertices()
        if 2 * x in reach and 2 * x + 1 not in reach
    )
    return cut


def vertex_connectivity_at_least(g: Graph, k: int) -> ConnectivityResult:
    """Decide kappa(g) >= k; on failure return a separator witness.

    Complete graphs have no separator at all, so for them the verdict is
    ``k <= n - 1`` with a textual reason and no witness.
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

    deg_min = min(g.degree(v) for v in g.vertices())
    v = min(x for x in g.vertices() if g.degree(x) == deg_min)
    pairs = [(v, u) for u in g.vertices() if u != v and u not in g.adj[v]]
    pairs += [
        (a, b) for a, b in combinations(sorted(g.adj[v]), 2) if b not in g.adj[a]
    ]
    for s, t in pairs:
        cut = _split_flow_mincut(g, s, t, k)
        if cut is not None:
            return ConnectivityResult(
                False, k, SeparatorWitness(cut, (s, t)),
                f"{len(cut)} vertices separate {s} from {t}",
            )
    return ConnectivityResult(True, k)

