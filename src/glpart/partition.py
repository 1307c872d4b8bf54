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

from .chordal import ChordalityWitness, Peo, compute_peo, mcs_order
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


def check_demands(
    wg: WeightedGraph, req: PartitionRequest, *, allow_overweight: bool = False
) -> bool:
    """Check terminal ids, the demand sum and each terminal's own weight.

    Raises DemandError when a terminal is out of range, when the demands do
    not sum to the total vertex weight, or, unless ``allow_overweight`` is
    set, when a terminal weighs more than its demand. Returns whether some
    terminal does.
    """
    for t in req.terminals:
        if not (0 <= t < wg.n):
            raise DemandError(f"terminal {t} out of range")
    total = wg.total_weight()
    if sum(req.demands) != total:
        raise DemandError(
            f"demands sum to {sum(req.demands)} but total vertex weight is {total}"
        )
    overweight = False
    for t, d in zip(req.terminals, req.demands):
        if wg.weights[t] > d:
            if not allow_overweight:
                raise DemandError(
                    f"terminal {t} weighs {wg.weights[t]}, above its demand {d}"
                )
            overweight = True
    return overweight


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
    turns on internal loop assertions (closed-part weight slack bounded by
    w_max, iteration budget).
    """
    g = wg.graph
    overweight_seen = check_demands(
        wg, req, allow_overweight=allow_overweight_terminals
    )
    peo = compute_peo(g)
    if validate:
        if isinstance(peo, ChordalityWitness):
            raise PreconditionError(
                "input graph is not chordal: vertex "
                f"{peo.vertex} has non-adjacent later neighbors {peo.nonadjacent}",
                witness=peo,
            )
        res = vertex_connectivity_at_least(g, req.k)
        if not res:
            raise PreconditionError(
                f"input graph is not {req.k}-connected: {res.reason}",
                witness=res.witness,
            )
    elif isinstance(peo, ChordalityWitness):
        # grow along the search order anyway; a bad order can only surface
        # as a stall
        peo = Peo.from_order(mcs_order(g))

    n, k = g.n, req.k
    adj, sigma = g.adj, peo.sigma
    weights, demands = wg.weights, req.demands
    w_max = wg.w_max
    # Per part: its vertices, its weight and its largest elimination
    # position. The positions are distinct across parts (parts are
    # disjoint), so the part choice is a strict minimum and the whole run
    # is deterministic.
    parts: list[set[int]] = [set() for _ in range(k)]
    part_weight = [0] * k
    priority = [-1] * k
    part_of: list[int | None] = [None] * n
    # per unassigned vertex, the parts it neighbors
    adj_parts: list[set[int]] = [set() for _ in range(n)]
    # heap of (elimination position, vertex), pushed whenever an unassigned
    # vertex gains a part it did not neighbor before; parts only ever close,
    # so every unassigned vertex next to an open part has an entry and stale
    # tops are dropped lazily
    frontier: list[tuple[int, int]] = []
    assigned = 0

    def assign(v: int, i: int) -> None:
        nonlocal assigned
        part_of[v] = i
        parts[i].add(v)
        part_weight[i] += weights[v]
        if sigma[v] > priority[i]:
            priority[i] = sigma[v]
        assigned += 1
        for u in adj[v]:
            if part_of[u] is None and i not in adj_parts[u]:
                adj_parts[u].add(i)
                heapq.heappush(frontier, (sigma[u], u))

    for i, t in enumerate(req.terminals):
        assign(t, i)
    open_ = [part_weight[i] < demands[i] for i in range(k)]
    open_count = sum(open_)
    # sum of (demand - weight) over closed parts
    closed_slack = sum(demands[i] - part_weight[i] for i in range(k) if not open_[i])

    iterations = 0
    max_iterations = n + k
    while open_count > 1 and assigned < n:
        iterations += 1
        if debug_invariants:
            if iterations > max_iterations:
                raise AssertionError("growth loop exceeded its iteration budget")
            # slack of the closed parts stays within one vertex weight
            if not overweight_seen and not -w_max < closed_slack < w_max:
                raise AssertionError(
                    f"closed-part weight slack {closed_slack} escaped (-{w_max}, {w_max})"
                )
        # earliest-position unassigned vertex adjacent to an open part
        while frontier:
            v = frontier[0][1]
            if part_of[v] is None:
                open_parts = [i for i in adj_parts[v] if open_[i]]
                if open_parts:
                    break
            heapq.heappop(frontier)
        else:
            raise SolverStallError(_STALL)
        i = min(open_parts, key=priority.__getitem__)
        wv = weights[v]
        if part_weight[i] + wv < demands[i]:
            assign(v, i)
        else:
            # close part i; overshoot only while the parts closed so far
            # have not under-shot, so the running slack stays in the open
            # window (-w_max, w_max) and the dump part inherits it
            open_[i] = False
            open_count -= 1
            if closed_slack >= 0 or part_weight[i] + wv == demands[i]:
                assign(v, i)
            closed_slack += demands[i] - part_weight[i]

    if assigned < n:
        if open_count != 1:
            raise SolverStallError(
                "unassigned vertices remain but no part is open"
            )
        last = open_.index(True)
        rest = [v for v in range(n) if part_of[v] is None]
        parts[last].update(rest)
        part_weight[last] += sum(weights[v] for v in rest)
        # growing the last part on would reach exactly these vertices, or
        # stall when some of them hang off another part only
        if not is_connected_set(g, parts[last]):
            raise SolverStallError(_STALL)

    deviation = max(abs(pw - d) for pw, d in zip(part_weight, demands))
    return GLPartition(tuple(frozenset(p) for p in parts), deviation)
