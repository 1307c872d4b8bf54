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

The loop's bookkeeping is ints, not sets. Each vertex has a bit mask of
the parts it borders (bit i for part i), set to -1 once the vertex is
assigned; the open parts are one more mask. The frontier is a heap of
elimination positions with at most one entry per waiting vertex, popped
when that vertex is assigned or found with no open part. A pick walks
only the set bits of the vertex's open parts, so its cost follows the
parts the vertex borders, not k. A pick assigns its vertex inline, at one
site, since a call per vertex is a measurable share of the loop.

``solve`` is the one entry point that ``glpart partition`` and
``oracle-compare`` call: it picks between this chordal solve and the
chord-and-contract pipeline and names the mode. It runs every stage of
that pipeline itself, calling the chord and contraction stages of
``almost_chordal`` and this module's growth loop, and it builds every
``Solution``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from dataclasses import dataclass

from .c4 import induced_catalog
from .chordal import mcs_search
from .connectivity import vertex_connectivity_at_least
from .errors import (
    DemandError,
    PipelineInvariantError,
    PreconditionError,
    SolverStallError,
)
from .graph import Edge, Graph, WeightedGraph, induced_subgraph, merged_weights
from .recognition import class_violation

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


@dataclass(frozen=True)
class Solution:
    """The answer of ``solve``: the partition, the mode the CLI prints, and
    the member pipeline's audit trail in input-graph ids. The audit fields
    are None on a chordal solve and tuples, possibly empty, on a member
    solve; ``peeled`` holds (part index, terminal) pairs."""

    partition: GLPartition
    mode: str
    added_chords: tuple[Edge, ...] | None = None
    contraction_edges: tuple[Edge, ...] | None = None
    peeled: tuple[tuple[int, int], ...] | None = None


def check_demands(
    wg: WeightedGraph, req: PartitionRequest, *, allow_overweight: bool = False
) -> None:
    """Check terminal ids, the demand sum and each terminal's own weight.

    Raises DemandError when a terminal is out of range, when the demands do
    not sum to the total vertex weight, or, unless ``allow_overweight`` is
    set, when a terminal weighs more than its demand.
    """
    for t in req.terminals:
        if not (0 <= t < wg.n):
            raise DemandError(f"terminal {t} out of range")
    total = wg.total_weight()
    if sum(req.demands) != total:
        raise DemandError(
            f"demands sum to {sum(req.demands)} but total vertex weight is {total}"
        )
    for t, d in zip(req.terminals, req.demands):
        if wg.weights[t] > d and not allow_overweight:
            raise DemandError(
                f"terminal {t} weighs {wg.weights[t]}, above its demand {d}"
            )


def _require_connectivity(g: Graph, k: int) -> None:
    """Raise PreconditionError, with the separator as witness, unless g is
    k-connected."""
    res = vertex_connectivity_at_least(g, k)
    if not res:
        raise PreconditionError(
            f"input graph is not {k}-connected: {res.reason}",
            witness=res.witness,
        )


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
    allow_overweight_terminals: bool = False,
) -> GLPartition:
    """Weighted connected partition of a chordal k-connected graph.

    Demands are weight targets summing to the total vertex weight. Every
    returned part lands strictly within one maximum vertex weight of its
    demand. A part whose terminal already meets its demand starts closed;
    once only one open part remains, it absorbs everything unassigned.

    ``allow_overweight_terminals`` skips the w(terminal) <= demand check.
    Contracted instances need that: a merged terminal can outweigh its
    demand, and such a part simply starts closed.

    Every solve checks the loop's two invariants: it makes at most n + k
    passes, and the summed slack (demand minus weight) of the closed parts
    stays strictly inside (-w_max, w_max) unless a part is seeded over its
    demand, which the seeded weights alone decide. A breach raises
    PipelineInvariantError.
    """
    g = wg.graph
    check_demands(wg, req, allow_overweight=allow_overweight_terminals)
    search = mcs_search(g)
    if validate:
        wit = search.witness
        if wit is not None:
            raise PreconditionError(
                "input graph is not chordal: vertex "
                f"{wit.vertex} has non-adjacent later neighbors {wit.nonadjacent}",
                witness=wit,
            )
        _require_connectivity(g, req.k)

    n, k = g.n, req.k
    # unvalidated, a non-chordal graph grows along its search order anyway;
    # a bad order can only surface as a stall
    adj, sigma, order = g.adj, search.sigma, search.order
    weights, demands = wg.weights, req.demands
    w_max = wg.w_max
    terminals = req.terminals
    # Per part: its vertices, its weight and its largest elimination
    # position. The positions are distinct across parts (parts are
    # disjoint), so the part choice is a strict minimum and the whole run
    # is deterministic.
    parts = [[t] for t in terminals]
    part_weight = [weights[t] for t in terminals]
    priority = [sigma[t] for t in terminals]
    # Per vertex, a bit mask of the parts it borders: bit i for part i, and
    # -1 (every bit set) once the vertex is assigned. Terminals are marked
    # before any is seeded, so none ever waits.
    mask = [0] * n
    for t in terminals:
        mask[t] = -1
    bits = [1 << i for i in range(k)]
    # Heap of elimination positions (vertex order[position - 1]) holding at
    # most one entry per waiting vertex, one whose mask is neither 0 nor -1.
    # A vertex is pushed when its mask leaves 0, and popped when it is
    # assigned or found with no open part (a pick that only closes a part
    # pushes it back). Found with no open part, its mask drops to 0: parts
    # never reopen, so its bits are dead, and a later part pushes it again.
    # So every unassigned vertex next to an open part has an entry, and no
    # assigned vertex has one. The key does not depend on the part, so one
    # entry picks the same vertex as one entry per (vertex, part) pair would.
    frontier: list[int] = []
    for t, bit in zip(terminals, bits):
        for u in adj[t]:
            if (m := mask[u]) >= 0:
                mask[u] = m | bit
                if not m:
                    heappush(frontier, sigma[u])
    assigned = k
    # bit i set while part i is open
    open_mask = sum(bits[i] for i in range(k) if part_weight[i] < demands[i])
    # sum of (demand - weight) over closed parts, the ones with weight >= demand
    closed_slack = sum(min(d - w, 0) for d, w in zip(demands, part_weight))
    # a part seeded over its demand exempts the run from the slack check
    overweight_seen = closed_slack < 0

    # Neither check fires on a correct run. Every pass assigns a vertex or
    # closes a part, so n + k passes suffice. A close overshoots its demand
    # only while the slack is >= 0 and otherwise stops short, so each close
    # adds a value in (-w, 0] or (0, w) for the vertex weight w it stopped
    # at, and the slack never leaves (-w_max, w_max).
    iterations = 0
    max_iterations = n + k
    # while two or more parts are open
    while open_mask & (open_mask - 1) and assigned < n:
        iterations += 1
        if iterations > max_iterations:
            raise PipelineInvariantError(
                "growth loop exceeded its iteration budget"
            )
        # earliest-position unassigned vertex adjacent to an open part
        while frontier:
            v = order[heappop(frontier) - 1]
            open_parts = mask[v] & open_mask
            if open_parts:
                break
            mask[v] = 0
        else:
            raise SolverStallError(_STALL)
        # The part of least priority among the open ones. The walk visits
        # only the set bits, highest first: a vertex borders few parts, and
        # scanning all k bits would cost O(k) per pick when k is large.
        i = open_parts.bit_length() - 1
        open_parts ^= bits[i]
        while open_parts:
            j = open_parts.bit_length() - 1
            open_parts ^= bits[j]
            if priority[j] < priority[i]:
                i = j
        w = part_weight[i] + weights[v]
        if w >= demands[i]:
            # close part i; the dump part inherits the slack
            open_mask ^= bits[i]
            short = closed_slack < 0 and w != demands[i]
            closed_slack += demands[i] - (part_weight[i] if short else w)
            if not overweight_seen and not -w_max < closed_slack < w_max:
                raise PipelineInvariantError(
                    f"closed-part weight slack {closed_slack} escaped "
                    f"(-{w_max}, {w_max})"
                )
            if short:
                # part i stops short of its demand and v waits again
                heappush(frontier, sigma[v])
                continue
        # assign v to part i
        mask[v] = -1
        parts[i].append(v)
        part_weight[i] = w
        if sigma[v] > priority[i]:
            priority[i] = sigma[v]
        assigned += 1
        bit = bits[i]
        for u in adj[v]:
            # Setting a bit the vertex already has changes nothing, so there
            # is no membership test. An assigned vertex is skipped by its
            # sign: `-1 | bit` is -1 too, but past bit 29 it builds a new
            # int, which many terminals would pay at every assigned vertex.
            if (m := mask[u]) >= 0:
                mask[u] = m | bit
                if not m:
                    heappush(frontier, sigma[u])

    if assigned < n:
        if not open_mask:
            raise SolverStallError(
                "unassigned vertices remain but no part is open"
            )
        last = open_mask.bit_length() - 1
        rest = [v for v in range(n) if mask[v] >= 0]
        parts[last].extend(rest)
        part_weight[last] += sum(weights[v] for v in rest)
        # Growing the last part on would reach exactly these vertices, or
        # stall when some of them hang off another part only. Every assigned
        # vertex bordered its part, so the part is connected, and it stays
        # so with the rest iff a walk over unassigned vertices from its
        # unassigned neighbours, the rest vertices with its bit (a bit of an
        # open part is never cleared), reaches all of them. A reached
        # vertex is marked -1 like an assigned one.
        bit = bits[last]
        reached = [v for v in rest if mask[v] & bit]
        for v in reached:
            mask[v] = -1
        for v in reached:
            for u in adj[v]:
                if mask[u] >= 0:
                    mask[u] = -1
                    reached.append(u)
        if len(reached) < len(rest):
            raise SolverStallError(_STALL)

    deviation = max(abs(pw - d) for pw, d in zip(part_weight, demands))
    return GLPartition(tuple(frozenset(p) for p in parts), deviation)


def solve(
    wg: WeightedGraph,
    req: PartitionRequest,
    *,
    mode: str = "auto",
    validate: bool = True,
) -> Solution:
    """Solve an instance as ``glpart partition`` does.

    ``mode`` is "chordal", "almost-chordal" or "auto", which picks the
    chordal solve iff the graph is chordal, by the memoised search that
    solve then reuses. ``validate=False`` is ``--skip-checks``. Returns one
    ``Solution``: the partition, the mode the CLI prints ("chordal-exact"
    under unit weights, else "chordal-weighted", or "almost-chordal") and,
    for the almost-chordal solve only, the pipeline's audit trail. An
    unknown mode raises ValueError.

    The almost-chordal solve runs every stage of the chord-and-contract
    pipeline of ``almost_chordal`` here, in order: the checks, the peel,
    the chords, the contraction plan, the inner connectivity check, the
    growth loop and the unfold. Its demands are weight targets that must
    cover each terminal's own weight. Returned part weights differ from
    their demands by less than max(2, k' - 1) times the maximum vertex
    weight, k' being the parts left open after the peel (the argument is
    in that module's docstring); under unit weights sizes are within one
    of target. Terminals whose demand equals their own weight are peeled
    off first. When at most one part stays open, it takes every other
    vertex, exactly. The audit trail is in input-graph ids: the chords
    added, the edges contracted (both empty when at most one part stays
    open) and the peeled (part index, terminal) pairs. The contracted
    graph is not kept; ``build_contraction_plan`` gives it.
    """
    g = wg.graph
    if mode == "auto":
        mode = "chordal" if mcs_search(g).witness is None else "almost-chordal"
    if mode == "chordal":
        part = gl_partition_chordal_weighted(wg, req, validate=validate)
        return Solution(part, "chordal-exact" if wg.is_unit() else "chordal-weighted")
    if mode != "almost-chordal":
        raise ValueError(
            f"unknown mode {mode!r}: expected auto, chordal or almost-chordal"
        )
    # imported here, so that importing the CLI loads no member stage
    from .almost_chordal import add_terminal_chords, build_contraction_plan

    k = req.k
    check_demands(wg, req)
    if validate:
        vio = class_violation(g)
        if vio is not None:
            raise PreconditionError(
                f"input graph is outside the supported class: {vio.kind} on "
                f"vertices {vio.vertices}",
                witness=vio,
            )
        _require_connectivity(g, k)

    peel_idx = [i for i in range(k) if req.demands[i] == wg.weights[req.terminals[i]]]
    peel_set = set(peel_idx)
    keep_idx = [i for i in range(k) if i not in peel_set]
    peeled = tuple((i, req.terminals[i]) for i in peel_idx)
    k_eff = len(keep_idx)
    if k_eff < 2:
        # the peeled parts start closed and the open part, if any, takes
        # the rest; the loop's absorb step checks that the rest is connected
        part = gl_partition_chordal_weighted(wg, req, validate=False)
        return Solution(part, "almost-chordal", (), (), peeled)

    terminals1 = tuple(req.terminals[i] for i in keep_idx)
    demands1 = tuple(req.demands[i] for i in keep_idx)
    if peeled:
        kept = set(g.vertices()).difference(t for _, t in peeled)
        g1, back = induced_subgraph(g, kept)
        fwd = {old: new for new, old in enumerate(back)}
        induced_catalog(g, g1, fwd)
        weights1 = tuple(wg.weights[old] for old in back)
        terminals1 = tuple(map(fwd.__getitem__, terminals1))
    else:
        # keep g itself, and with it the certificates it holds
        g1, weights1 = g, wg.weights

    g2, chords = add_terminal_chords(g1, terminals1)
    plan = build_contraction_plan(g2, terminals1)

    inner_wg = WeightedGraph(
        plan.contracted.graph, merged_weights(weights1, plan.contraction_edges)
    )
    if validate:
        res = vertex_connectivity_at_least(inner_wg.graph, k_eff)
        if not res:
            raise PipelineInvariantError(
                f"contracted graph lost {k_eff}-connectivity: {res.reason}"
            )
    inner_req = PartitionRequest(
        tuple(map(plan.terminal_map.__getitem__, terminals1)), demands1
    )
    inner = gl_partition_chordal_weighted(
        inner_wg,
        inner_req,
        validate=False,
        allow_overweight_terminals=True,
    )

    parts: list[frozenset[int]] = [frozenset()] * k
    for i, t in peeled:
        parts[i] = frozenset((t,))
    for pos, i in enumerate(keep_idx):
        parts[i] = plan.merge_map.expand(inner.parts[pos])
    edges = plan.contraction_edges
    if peeled:
        # back to g's ids; ``back`` ascends, so each pair stays sorted
        orig = back.__getitem__
        for i in keep_idx:
            parts[i] = frozenset(map(orig, parts[i]))
        chords = tuple(tuple(map(orig, e)) for e in chords)
        edges = tuple(tuple(map(orig, e)) for e in edges)

    # each unfolded part weighs what its contracted part did, and a peeled
    # part is its terminal, whose weight is its demand
    partition = GLPartition(tuple(parts), inner.deviation)
    return Solution(partition, "almost-chordal", chords, edges, peeled)
