"""Exhaustive reference solver for small instances.

Enumerates connected vertex sets of exact demanded sizes, terminal by
terminal, with component-based feasibility pruning. Exponential by nature;
guarded by a hard size cap. Used to cross-check the constructive solvers.
"""

from __future__ import annotations

from collections import deque

from .errors import CapError
from .graph import Graph, WeightedGraph, components_within
from .partition import GLPartition, PartitionRequest, check_demands

DEFAULT_ORACLE_CAP = 12


def _reachable(g: Graph, seeds: frozenset[int], allowed: frozenset[int]) -> int:
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        x = queue.popleft()
        for y in g.adj[x]:
            if y in allowed and y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen)


def _connected_sets(g: Graph, start: int, size: int, allowed: frozenset[int]):
    """All connected sets of the given size containing ``start``, once each.

    Classic extension scheme: at every level the candidate extensions are
    tried in ascending order and each candidate is permanently banned for
    the branches after it, so no set is produced twice.
    """

    def rec(cur: frozenset[int], banned: frozenset[int]):
        if len(cur) == size:
            yield cur
            return
        usable = allowed - banned
        if _reachable(g, cur, usable) < size:
            return
        ext: set[int] = set()
        for x in cur:
            ext |= g.adj[x]
        ext = sorted((ext & usable) - cur)
        for i, c in enumerate(ext):
            yield from rec(cur | {c}, banned | frozenset(ext[:i]))

    if start in allowed and size >= 1:
        yield from rec(frozenset((start,)), frozenset())


def _feasible(
    g: Graph,
    available: frozenset[int],
    terminals: tuple[int, ...],
    demands: tuple[int, ...],
) -> bool:
    """Necessary condition: every leftover component is exactly fillable
    by the parts whose terminals it contains."""
    if not available:
        return not terminals
    comps = components_within(g, available)
    where = {}
    for idx, comp in enumerate(comps):
        for t in comp:
            where[t] = idx
    need = [0] * len(comps)
    for t, d in zip(terminals, demands):
        if t not in where:
            return False
        need[where[t]] += d
    return all(need[i] == len(c) for i, c in enumerate(comps))


def brute_force_gl(
    g: Graph, req: PartitionRequest, *, cap: int = DEFAULT_ORACLE_CAP
) -> GLPartition | None:
    """Exact connected partition by exhaustive search, or None if none exists.

    Demands are vertex counts and must sum to n. Refuses graphs larger than
    ``cap`` vertices. Deterministic: parts are grown in request order and
    candidate vertices in ascending id order, so the first solution found is
    always the same.
    """
    n = g.n
    if n > cap:
        raise CapError(f"n={n} exceeds the oracle cap {cap}")
    check_demands(WeightedGraph.unit(g), req)

    k = req.k

    def place(i: int, available: frozenset[int]):
        if i == k:
            return [] if not available else None
        t = req.terminals[i]
        later = frozenset(req.terminals[i + 1:])
        for s in _connected_sets(g, t, req.demands[i], available - later):
            rest = available - s
            if _feasible(g, rest, req.terminals[i + 1:], req.demands[i + 1:]):
                tail = place(i + 1, rest)
                if tail is not None:
                    return [s] + tail
        return None

    solution = place(0, frozenset(g.vertices()))
    if solution is None:
        return None
    return GLPartition(tuple(frozenset(s) for s in solution), 0)
