"""Connected partition solvers for chordal graphs.

One growth loop serves both solves; the exact unit-size solve is the
weighted one with every weight 1. The loop grows one part per terminal by
repeatedly assigning the unassigned frontier vertex that comes earliest in
a perfect elimination order to the adjacent open part whose
latest-positioned vertex is earliest. A part closes when its next vertex
would reach or pass its demand, and the last open part absorbs whatever
remains.
On chordal k-connected inputs every part weight lands strictly within one
maximum vertex weight of its demand, which under unit weights means
exactly on it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .chordal import Peo, mcs_order, peo_violation
from .connectivity import vertex_connectivity_at_least
from .errors import DemandError, PreconditionError, SolverStallError
from .graph import Graph, WeightedGraph, is_connected_set

_STALL = (
    "no unassigned vertex neighbors an open part; "
    "the input does not satisfy the solver preconditions"
)


@dataclass(frozen=True)
class PartitionRequest:
    """Terminals with one demand each.

    Demands are vertex counts for unweighted solves and weight targets for
    weighted ones. Terminals must be distinct and there must be at least
    two of them.
    """

    terminals: tuple[int, ...]
    demands: tuple[int, ...]

    def __post_init__(self):
        if len(self.terminals) != len(self.demands):
            raise DemandError("terminals and demands must have equal length")
        if len(self.terminals) < 2:
            raise DemandError("need at least 2 terminals")
        if len(set(self.terminals)) != len(self.terminals):
            raise DemandError("terminals must be distinct")
        if any(d < 1 for d in self.demands):
            raise DemandError("demands must be positive")

    @property
    def k(self) -> int:
        return len(self.terminals)


@dataclass(frozen=True)
class GLPartition:
    """A connected partition; ``parts[i]`` contains terminal i.

    ``deviation`` is the largest absolute gap between a part's achieved
    demand (size or weight, matching the solve) and its target.
    """

    parts: tuple[frozenset[int], ...]
    deviation: int


def _check_ids(g: Graph, req: PartitionRequest) -> None:
    for t in req.terminals:
        if not (0 <= t < g.n):
            raise DemandError(f"terminal {t} out of range")


def _require_order(g: Graph, validate: bool) -> Peo:
    """Elimination order for the growth loop.

    With validation on, a non-chordal input is rejected with a witness.
    With validation off the search order is used as-is; a bad order can
    only surface later as a solver stall.
    """
    order = mcs_order(g)
    if validate:
        witness = peo_violation(g, order)
        if witness is not None:
            raise PreconditionError(
                "input graph is not chordal: vertex "
                f"{witness.vertex} has non-adjacent later neighbors {witness.nonadjacent}",
                witness=witness,
            )
    return Peo.from_order(order)


def _require_connectivity(g: Graph, k: int) -> None:
    res = vertex_connectivity_at_least(g, k)
    if not res:
        raise PreconditionError(
            f"input graph is not {k}-connected: {res.reason}", witness=res.witness
        )


class _GrowState:
    """Book-keeping for the growth loop.

    Tracks, per unassigned vertex, which parts it currently neighbors, and
    per part the largest elimination position inside it. Those positions are
    distinct across parts (parts are disjoint), so the part choice is a
    strict minimum and the whole run is deterministic.

    The frontier is a heap of (elimination position, vertex), pushed
    whenever an unassigned vertex gains a part it did not neighbor before.
    Parts only ever close, so every unassigned vertex next to an open part
    has an entry; ``pick`` drops stale tops lazily.
    """

    __slots__ = (
        "g", "peo", "parts", "part_of", "open_", "priority",
        "adj_parts", "frontier", "assigned",
    )

    def __init__(self, g: Graph, peo: Peo, terminals: tuple[int, ...]):
        n = g.n
        self.g = g
        self.peo = peo
        self.parts: list[set[int]] = [{t} for t in terminals]
        self.part_of: list[int | None] = [None] * n
        for i, t in enumerate(terminals):
            if self.part_of[t] is not None:
                raise DemandError("terminals must be distinct")
            self.part_of[t] = i
        self.open_ = [True] * len(terminals)
        self.priority = [peo.sigma[t] for t in terminals]
        self.adj_parts: list[set[int]] = [set() for _ in range(n)]
        self.frontier: list[tuple[int, int]] = []
        for i, t in enumerate(terminals):
            self._touch(t, i)
        self.assigned = len(terminals)

    def _touch(self, v: int, i: int) -> None:
        """Part i now holds v; neighbors newly next to part i join the frontier."""
        sigma = self.peo.sigma
        for u in self.g.adj[v]:
            if self.part_of[u] is None and i not in self.adj_parts[u]:
                self.adj_parts[u].add(i)
                heapq.heappush(self.frontier, (sigma[u], u))

    def pick(self) -> tuple[int, list[int]] | None:
        """Earliest-position unassigned vertex adjacent to an open part.

        Returns that vertex and the open parts it neighbors, or None when
        the frontier is empty.
        """
        frontier = self.frontier
        while frontier:
            v = frontier[0][1]
            if self.part_of[v] is None:
                open_parts = [i for i in self.adj_parts[v] if self.open_[i]]
                if open_parts:
                    return v, open_parts
            heapq.heappop(frontier)
        return None

    def choose_part(self, open_parts: list[int]) -> int:
        return min(open_parts, key=lambda i: self.priority[i])

    def assign(self, v: int, i: int) -> None:
        self.part_of[v] = i
        self.parts[i].add(v)
        if self.peo.sigma[v] > self.priority[i]:
            self.priority[i] = self.peo.sigma[v]
        self._touch(v, i)
        self.assigned += 1

    def frozen_parts(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(p) for p in self.parts)


def gl_partition_chordal(
    g: Graph, req: PartitionRequest, *, validate: bool = True
) -> GLPartition:
    """Exact connected partition of a chordal k-connected graph.

    Demands are vertex counts and must sum to n. This is the weighted solve
    with every weight 1: a part then closes exactly on its demand, so every
    returned part is connected, contains its terminal, and matches its
    demand (deviation 0). Raises PreconditionError when validation finds the
    graph non-chordal or insufficiently connected, SolverStallError when
    validation was skipped and the growth loop runs out of frontier.
    """
    return gl_partition_chordal_weighted(WeightedGraph.unit(g), req, validate=validate)


def gl_partition_chordal_weighted(
    wg: WeightedGraph,
    req: PartitionRequest,
    *,
    validate: bool = True,
    debug_invariants: bool = False,
    allow_overweight_terminals: bool = False,
) -> GLPartition:
    """Weighted connected partition of a chordal k-connected graph.

    Demands are weight targets summing to the total vertex weight. Every
    returned part lands strictly within one maximum vertex weight of its
    demand. A part whose terminal already meets its demand starts closed;
    once only one open part remains, it absorbs everything unassigned.

    ``allow_overweight_terminals`` skips the w(terminal) <= demand check.
    Contracted instances need that: a merged terminal can outweigh its
    demand, and such a part simply starts closed. ``debug_invariants``
    turns on internal loop assertions (frontier non-empty, closed-part
    weight slack bounded by w_max, iteration budget).
    """
    g = wg.graph
    _check_ids(g, req)
    total = wg.total_weight()
    if sum(req.demands) != total:
        raise DemandError(
            f"demands sum to {sum(req.demands)} but total vertex weight is {total}"
        )
    overweight_seen = False
    for t, d in zip(req.terminals, req.demands):
        if wg.weights[t] > d:
            if not allow_overweight_terminals:
                raise DemandError(
                    f"terminal {t} weighs {wg.weights[t]}, above its demand {d}"
                )
            overweight_seen = True
    peo = _require_order(g, validate)
    if validate:
        _require_connectivity(g, req.k)

    st = _GrowState(g, peo, req.terminals)
    k = req.k
    weights = wg.weights
    w_max = wg.w_max
    part_weight = [weights[t] for t in req.terminals]
    closed_slack = 0  # sum of (demand - weight) over closed parts
    for i in range(k):
        st.open_[i] = part_weight[i] < req.demands[i]
        if not st.open_[i]:
            closed_slack += req.demands[i] - part_weight[i]
    open_count = sum(st.open_)

    n = g.n
    iterations = 0
    max_iterations = n + k
    while open_count > 1 and st.assigned < n:
        iterations += 1
        if debug_invariants:
            if iterations > max_iterations:
                raise AssertionError("growth loop exceeded its iteration budget")
            # slack of the closed parts stays within one vertex weight
            if not overweight_seen and not -w_max < closed_slack < w_max:
                raise AssertionError(
                    f"closed-part weight slack {closed_slack} escaped (-{w_max}, {w_max})"
                )
        picked = st.pick()
        if picked is None:
            raise SolverStallError(_STALL)
        v, open_parts = picked
        i = st.choose_part(open_parts)
        wv = weights[v]
        if part_weight[i] + wv < req.demands[i]:
            st.assign(v, i)
            part_weight[i] += wv
        else:
            # close part i; overshoot only while the parts closed so far
            # have not under-shot, so the running slack stays in the open
            # window (-w_max, w_max) and the dump part inherits it
            st.open_[i] = False
            open_count -= 1
            if closed_slack >= 0 or part_weight[i] + wv == req.demands[i]:
                st.assign(v, i)
                part_weight[i] += wv
            closed_slack += req.demands[i] - part_weight[i]

    if st.assigned < n:
        if open_count != 1:
            raise SolverStallError(
                "unassigned vertices remain but no part is open"
            )
        last = st.open_.index(True)
        for v in peo.order:
            if st.part_of[v] is None:
                st.assign(v, last)
                part_weight[last] += weights[v]
        # growing the last part on would reach exactly these vertices, or
        # stall when some of them hang off another part only
        if not is_connected_set(g, st.parts[last]):
            raise SolverStallError(_STALL)

    deviation = max(abs(pw - d) for pw, d in zip(part_weight, req.demands))
    return GLPartition(st.frozen_parts(), deviation)
