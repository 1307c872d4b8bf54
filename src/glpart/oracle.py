"""Exhaustive reference solver for small instances.

Enumerates connected vertex sets of exact demanded sizes, terminal by
terminal, with component-based feasibility pruning. Exponential by nature;
guarded by a hard size cap. Used to cross-check the constructive solvers.

Both searches are loops over an explicit stack of generators, one per
level, so their depth is bounded by memory rather than by Python's
recursion limit (a part of 1,000 vertices is 1,000 levels deep), and no
closure refers to itself, which would leave a function-cell cycle behind
every call.
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
    the branches after it, so no set is produced twice. The stack holds,
    for each set on the current branch, the generator of its extensions.
    """
    if start not in allowed or size < 1:
        return
    stack = [iter(((frozenset((start,)), frozenset()),))]
    while stack:
        branch = next(stack[-1], None)
        if branch is None:
            stack.pop()
            continue
        cur, banned = branch
        if len(cur) == size:
            yield cur
            continue
        usable = allowed - banned
        if _reachable(g, cur, usable) < size:
            continue
        ext: set[int] = set()
        for x in cur:
            ext |= g.adj[x]
        stack.append(_extensions(cur, banned, sorted((ext & usable) - cur)))


def _extensions(cur: frozenset[int], banned: frozenset[int], ext: list[int]):
    """``cur`` plus each of ``ext`` in turn, banning the ones before it.

    A function, not a generator expression in the loop, which would read
    ``cur`` and ``banned`` when resumed, after the loop rebound them.
    """
    for i, c in enumerate(ext):
        yield cur | {c}, banned | frozenset(ext[:i])


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


def _placements(g: Graph, req: PartitionRequest, i: int, available: frozenset[int]):
    """Part i's candidates in ``available``, each with the vertices it
    leaves for the later parts, when those can still be filled."""
    later = req.terminals[i + 1:]
    for s in _connected_sets(g, req.terminals[i], req.demands[i],
                             available - frozenset(later)):
        rest = available - s
        if _feasible(g, rest, later, req.demands[i + 1:]):
            yield s, rest


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

    # one generator per part placed so far, the last one for the part
    # being placed; parts[i] is part i's current candidate
    parts: list[frozenset[int]] = []
    stack = [_placements(g, req, 0, frozenset(g.vertices()))]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if stack:
                parts.pop()
            continue
        s, rest = step
        parts.append(s)
        if len(parts) < req.k:
            stack.append(_placements(g, req, len(parts), rest))
        else:
            # with no terminals left, _feasible accepts only an empty rest
            return GLPartition(tuple(parts), 0)
    return None

