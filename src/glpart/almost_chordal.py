"""Connected partitions on almost-chordal graphs via chord-and-contract.

The pipeline reduces an instance whose only non-chordality is a family of
pairwise almost-disjoint induced 4-cycles to a weighted chordal instance:

1. peel unit-demand terminals (each peel lowers the connectivity the
   remaining instance needs by one),
2. add a chord between every non-adjacent terminal pair lying on a common
   induced 4-cycle, to a fixpoint,
3. repeatedly pick a catalogued 4-cycle with at least three vertices on no
   other remaining cycle, record one cycle edge of a non-terminal among
   those three, and drop the cycle. This leaf-peeling is the only test of
   the cycles' structure: it runs to the end iff the incidence graph of
   cycles and shared vertices is a forest (a forest always has a cycle
   with at most one shared vertex left, while the cycles on an incidence
   cycle each keep two shared vertices for good), which is the premise
   of the reduction,
4. contract all recorded edges in one pass (pairwise disjoint, so merged
   weights are at most twice the maximum), which yields a chordal graph
   with connectivity preserved,
5. solve the weighted chordal instance and unfold the merges.

Unweighted demands land within one vertex of target; weighted parts stay
strictly within twice the maximum vertex weight.

Every stage asks ``enumerate_induced_c4`` and ``compute_peo`` for the
certificates it needs; each graph keeps them in its memo, so a validated
solve without peeling or chords builds one catalog, that of the input,
which recognition, the chord step and the contraction plan share; the
connectivity check reads the input's search order instead. Peeling
yields a new graph and so one more catalog, and so does each added
chord. The contraction plan certifies the contracted graph's elimination
order, which the inner connectivity check and the chordal solve reuse.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .c4 import enumerate_induced_c4
from .chordal import Peo, compute_peo
from .connectivity import vertex_connectivity_at_least
from .errors import PipelineInvariantError, PreconditionError
from .graph import (
    Edge,
    Graph,
    MergeMap,
    WeightedGraph,
    contract_matching,
    induced_subgraph,
)
from .partition import (
    GLPartition,
    PartitionRequest,
    check_demands,
    gl_partition_chordal_weighted,
)
from .recognition import is_hh_i42_free


def add_terminal_chords(
    g: Graph, terminals: tuple[int, ...]
) -> tuple[Graph, tuple[Edge, ...]]:
    """Chord every non-adjacent terminal pair that shares an induced 4-cycle.

    Repeats until no catalogued cycle carries such a pair, so afterwards
    every remaining cycle has at most two terminals and they are adjacent.
    Returns the new graph and the added chords in insertion order.
    """
    tset = set(terminals)
    added: list[Edge] = []
    while True:
        chord = None
        for cycle in enumerate_induced_c4(g):
            on_cycle = sorted(tset.intersection(cycle))
            for i, a in enumerate(on_cycle):
                for b in on_cycle[i + 1:]:
                    if b not in g.adj[a]:
                        chord = (a, b)
                        break
                if chord:
                    break
            if chord:
                break
        if chord is None:
            return g, tuple(added)
        g = g.with_edges([chord])
        added.append(chord)


@dataclass(frozen=True)
class ContractionPlan:
    """Everything needed to reduce one graph to its chordal contraction.

    Ids in ``contraction_edges`` refer to the input graph; ``merge_map``
    maps contracted ids back to it. ``contracted`` carries group sizes as
    weights (callers re-derive real weights from their own vectors).
    """

    contraction_edges: tuple[Edge, ...]
    contracted: WeightedGraph
    merge_map: MergeMap
    terminal_map: dict[int, int]
    c4_count: int


def build_contraction_plan(
    g: Graph, terminals: tuple[int, ...]
) -> ContractionPlan:
    """Select one edge per induced 4-cycle and contract them all.

    Requires that terminal pairs on a common cycle are already adjacent
    (run ``add_terminal_chords`` first) and that the cycle/vertex incidence
    structure is a forest. When it is not, the greedy runs out of cycles
    with three private vertices and raises PreconditionError: the input is
    outside the supported class.

    The greedy always takes the first cycle in catalog order that has
    three private vertices. Eligible cycles wait in a heap of ids, and a
    cycle is pushed when one of its vertices becomes private to it, so the
    greedy costs O(c log c) for c cycles instead of a rescan per pick.
    """
    catalog = enumerate_induced_c4(g)
    tset = set(terminals)
    # the remaining cycles through each vertex; a vertex is private to a
    # cycle when that cycle is the only one left through it
    cycles_at: dict[int, set[int]] = {}
    for ci, cyc in enumerate(catalog):
        for v in cyc:
            cycles_at.setdefault(v, set()).add(ci)

    def eligible(ci: int) -> bool:
        return sum(len(cycles_at[v]) == 1 for v in catalog[ci]) >= 3

    # dropping a cycle only frees vertices, so a cycle stays eligible once
    # it is, and the heap's smallest id is the first eligible cycle in
    # catalog order; the ids start ascending, which is already a heap
    queued = [eligible(ci) for ci in range(len(catalog))]
    ready = [ci for ci, q in enumerate(queued) if q]
    chosen: list[Edge] = []

    while len(chosen) < len(catalog):
        if not ready:
            raise PreconditionError(
                "no remaining induced 4-cycle has three private vertices; "
                "input is outside the supported class"
            )
        ci = heapq.heappop(ready)
        cyc = catalog[ci]
        triple = sorted(v for v in cyc if len(cycles_at[v]) == 1)[:3]
        free = [v for v in triple if v not in tset]
        if not free:
            raise PipelineInvariantError(
                "cycle triple consists of terminals only; terminal chords "
                "were not applied or the input is outside the supported class"
            )
        v = free[0]
        pos = cyc.index(v)
        ring_nbrs = {cyc[(pos - 1) % 4], cyc[(pos + 1) % 4]}
        # a triple misses one cycle vertex, so v keeps a ring neighbor in it
        partner = min(ring_nbrs & set(triple))
        e = (v, partner) if v < partner else (partner, v)
        chosen.append(e)
        for u in cyc:
            through = cycles_at[u]
            through.discard(ci)
            if len(through) == 1:
                (cj,) = through
                if not queued[cj] and eligible(cj):
                    queued[cj] = True
                    heapq.heappush(ready, cj)

    try:
        current, merge_map = contract_matching(g, chosen)
    except ValueError as exc:
        raise PipelineInvariantError(
            f"selected contraction edges are unusable: {exc}"
        ) from None
    terminal_map = {t: x for x, grp in enumerate(merge_map.groups) for t in grp & tset}
    sizes = tuple(len(grp) for grp in merge_map.groups)
    if not isinstance(compute_peo(current), Peo):
        raise PipelineInvariantError(
            "contracted graph is not chordal; input was outside the supported class"
        )
    return ContractionPlan(
        contraction_edges=tuple(chosen),
        contracted=WeightedGraph(current, sizes),
        merge_map=merge_map,
        terminal_map=terminal_map,
        c4_count=len(catalog),
    )


@dataclass(frozen=True)
class PipelineResult:
    """Partition plus the audit trail of the reduction, in input-graph ids."""

    partition: GLPartition
    added_chords: tuple[Edge, ...]
    contraction_edges: tuple[Edge, ...]
    merge_groups: tuple[frozenset[int], ...]
    peeled: tuple[tuple[int, int], ...]  # (part index, terminal)
    effective_k: int
    contracted: WeightedGraph | None
    contracted_terminals: tuple[int, ...]
    c4_count: int


def gl_partition_almost_chordal(
    wg: WeightedGraph,
    req: PartitionRequest,
    *,
    validate: bool = True,
    debug_invariants: bool = False,
) -> PipelineResult:
    """Near-exact connected partition of an almost-chordal k-connected graph.

    Demands are weight targets summing to the total weight (vertex counts
    under unit weights) and must cover each terminal's own weight. Returned
    part weights differ from their demands by less than twice the maximum
    vertex weight; under unit weights sizes are within one of target.

    Terminals whose demand equals their own weight are peeled off first;
    the rest of the instance must keep at least two open parts.
    """
    g = wg.graph
    k = req.k
    check_demands(wg, req)
    if validate:
        check = is_hh_i42_free(g)
        if not check:
            vio = check.violation
            raise PreconditionError(
                f"input graph is outside the supported class: {vio.kind} on "
                f"vertices {vio.vertices}",
                witness=vio,
            )
        res = vertex_connectivity_at_least(g, k)
        if not res:
            raise PreconditionError(
                f"input graph is not {k}-connected: {res.reason}",
                witness=res.witness,
            )

    peel_idx = [i for i in range(k) if req.demands[i] == wg.weights[req.terminals[i]]]
    keep_idx = [i for i in range(k) if i not in set(peel_idx)]
    if len(keep_idx) < 2:
        raise PreconditionError(
            "after peeling unit-demand terminals fewer than two parts remain open; "
            "shrink the instance instead"
        )
    peeled = tuple((i, req.terminals[i]) for i in peel_idx)
    k_eff = len(keep_idx)

    peeled_set = {t for _, t in peeled}
    back = tuple(v for v in g.vertices() if v not in peeled_set)
    # without peeling keep g itself, and with it the certificates it holds
    g1 = induced_subgraph(g, back)[0] if peeled else g
    fwd = {old: new for new, old in enumerate(back)}
    weights1 = tuple(wg.weights[old] for old in back)
    terminals1 = tuple(fwd[req.terminals[i]] for i in keep_idx)
    demands1 = tuple(req.demands[i] for i in keep_idx)

    g2, chords1 = add_terminal_chords(g1, terminals1)
    plan = build_contraction_plan(g2, terminals1)

    w2 = tuple(
        sum(weights1[v] for v in grp) for grp in plan.merge_map.groups
    )
    inner_wg = WeightedGraph(plan.contracted.graph, w2)
    if validate:
        res = vertex_connectivity_at_least(inner_wg.graph, k_eff)
        if not res:
            raise PipelineInvariantError(
                f"contracted graph lost {k_eff}-connectivity: {res.reason}"
            )
    inner_req = PartitionRequest(
        tuple(plan.terminal_map[t] for t in terminals1), demands1
    )
    inner = gl_partition_chordal_weighted(
        inner_wg,
        inner_req,
        validate=False,
        debug_invariants=debug_invariants,
        allow_overweight_terminals=True,
    )

    parts: list[frozenset[int]] = [frozenset()] * k
    for i, t in peeled:
        parts[i] = frozenset((t,))
    for pos, i in enumerate(keep_idx):
        unfolded = plan.merge_map.expand(inner.parts[pos])
        parts[i] = frozenset(back[v] for v in unfolded)

    deviations = []
    for i in range(k):
        achieved = wg.weight_of(parts[i])
        deviations.append(abs(achieved - req.demands[i]))
    partition = GLPartition(tuple(parts), max(deviations))

    def to_orig(e: Edge) -> Edge:
        a, b = back[e[0]], back[e[1]]
        return (a, b) if a < b else (b, a)

    return PipelineResult(
        partition=partition,
        added_chords=tuple(to_orig(e) for e in chords1),
        contraction_edges=tuple(to_orig(e) for e in plan.contraction_edges),
        merge_groups=tuple(
            frozenset(back[v] for v in grp)
            for grp in plan.merge_map.groups if len(grp) >= 2
        ),
        peeled=peeled,
        effective_k=k_eff,
        contracted=inner_wg,
        contracted_terminals=inner_req.terminals,
        c4_count=plan.c4_count,
    )
