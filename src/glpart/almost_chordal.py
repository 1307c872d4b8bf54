"""The stages of chord-and-contract, for almost-chordal graphs.

``partition.solve`` runs the pipeline; this module holds steps 2 to 4,
the terminal chords and the contraction plan. The pipeline reduces an
instance whose only non-chordality is a family of pairwise
almost-disjoint induced 4-cycles to a weighted chordal instance:

1. peel unit-demand terminals (each peel lowers the connectivity the
   remaining instance needs by one); with at most one part left open,
   the growth loop runs on the input itself and that part takes the rest,
2. add a chord between every non-adjacent terminal pair lying on a common
   induced 4-cycle, all from one reading of the catalog (on members no
   chord kills another cycle or makes a new one),
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

Unweighted demands land within one vertex of target. Weighted parts stay
strictly within max(2, k' - 1) * w_max of their demands, for the k' parts
open after the peel, so within 2 * w_max while k' <= 3. A terminal merged
with its partner may start over its demand, by less than the partner's
weight; at most k' - 1 groups can, since the demands sum to the total
weight, so the closed parts' slack starts above -(k' - 1) * w_max. Every
later close moves that slack toward 0 by less than the contracted graph's
largest weight, at most 2 * w_max, so it ends within max(2, k' - 1) *
w_max of 0, and the last open part takes the rest of the slack. From
k' = 4 on, the paper's 2 * w_max can be missed.

Every stage asks ``enumerate_induced_c4`` and ``mcs_search`` for the
certificates it needs; each graph keeps them in its memo. Each catalog is
read off its graph's clique separator decomposition, which recognition
and the connectivity check share, so ``solve``'s ``validate`` only
decides whether a failed check raises. On members each non-complete atom
is ring + Q, one induced 4-cycle joined to a clique (observed, not
proven; any other atom takes the walk, the hole search and the flow).
Then the atoms' rings are the catalog, which the chord step and the
contraction plan reuse, and no catalog walk, hole search or flow runs
and no atom's subgraph is built.
The peeled graph's catalog is the input's less the peeled vertices; the
chorded graph's is read off its own search and decomposition. The
contraction plan certifies the contracted graph's elimination order,
which the inner connectivity check and the chordal solve reuse.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import compress, count
from operator import not_

from .c4 import enumerate_induced_c4
from .chordal import mcs_search
from .errors import PipelineInvariantError, PreconditionError
from .graph import (
    Edge,
    Graph,
    MergeMap,
    WeightedGraph,
    contract_matching,
    merged_weights,
)


def add_terminal_chords(
    g: Graph, terminals: tuple[int, ...]
) -> tuple[Graph, tuple[Edge, ...]]:
    """Chord every non-adjacent terminal pair that shares an induced 4-cycle.

    Works in rounds. Each round reads the current graph's catalog once and,
    for each cycle (a, b, c, d), takes its first diagonal whose ends are
    both terminals: (a, c), else (b, d). All of a round's chords go in at
    once, and the rounds stop when one adds none, so afterwards no
    catalogued cycle has two non-adjacent terminals. Returns the new graph
    and the added chords in insertion order.

    On members one round adds them all. Let G have no hole and no two
    induced 4-cycles sharing two vertices, and add the chord ac of the
    cycle C = a-b-c-d.

    (i) No other cycle dies: it would hold a and c as opposite vertices,
    and so share two vertices with C.
    (ii) No induced 4-cycle and (iii) no hole is born. Either would be a
    chordless cycle a-c-x1-...-xm-a of the new graph with m >= 2, so
    c-x1-...-xm-a is an induced path of G. If b misses x1, b's first
    neighbour after c on that path closes a chordless cycle through b, c
    and x1: a 4-cycle sharing b and c with C, or a hole. So b sees x1,
    and by symmetry so does d, and a-b-x1-d is an induced 4-cycle sharing
    three vertices with C.

    So the argument repeats chord by chord: adding them one at a time,
    each time chording the first cycle left with a terminal diagonal,
    gives the same chords in catalog order. The second round finds
    nothing, and its catalog stays in the returned graph's memo. Off the
    class two cycles can share a diagonal, which is added once.
    """
    tset = set(terminals)
    added: list[Edge] = []
    while True:
        # both diagonals of a canonical cycle are sorted pairs
        firsts = (
            next((e for e in ((a, c), (b, d)) if tset.issuperset(e)), None)
            for a, b, c, d in enumerate_induced_c4(g)
        )
        chords = dict.fromkeys(filter(None, firsts))
        if not chords:
            return g, tuple(added)
        g = g.with_edges(chords)
        added += chords


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

    The contracted graph keeps its own search: the input's order with each
    merged group at its last member need not be it, as a vertex that sees
    both ends of a merged pair counts them twice before the contraction
    and once after, so a tie can break the other way (see test_lemmas).
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
    groups = merge_map.groups
    # the ids of the groups that hold a terminal
    hit = compress(count(), map(not_, map(tset.isdisjoint, groups)))
    terminal_map = {t: x for x in hit for t in groups[x] & tset}
    if mcs_search(current).witness is not None:
        raise PipelineInvariantError(
            "contracted graph is not chordal; input was outside the supported class"
        )
    return ContractionPlan(
        contraction_edges=tuple(chosen),
        contracted=WeightedGraph(current, merged_weights((1,) * g.n, chosen)),
        merge_map=merge_map,
        terminal_map=terminal_map,
    )
