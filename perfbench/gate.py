"""Correctness gate: judge one CLI output against its instance.

A partition must pass ``glpart.verify.verify_partition`` under the paper's
rule for its class. A rejection must exit 2 and carry the planted violation,
and its witness is re-checked here from the definition, without calling the
recognition code that produced it.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import combinations
from time import perf_counter_ns

from glpart.cli import EXIT_OK, EXIT_PRECONDITION
from glpart.graph import Graph, WeightedGraph
from glpart.partition import GLPartition, PartitionRequest
from glpart.verify import DeviationRule, verify_partition


def expected_mode(recipe) -> str:
    if recipe.member:
        return "almost-chordal"
    return "chordal-weighted" if recipe.weighted else "chordal-exact"


def deviation_rule(recipe, w_max: int) -> DeviationRule:
    """The paper's guarantee for the instance's class."""
    if recipe.member:
        return DeviationRule.window(2 * w_max) if recipe.weighted else DeviationRule.slack(1)
    return DeviationRule.window(w_max) if recipe.weighted else DeviationRule.exact()


def check_output(case, rc, out_text: str, spans=None) -> str | None:
    """None when the output is right, else a one-line reason."""
    if case.recipe.plant:
        return check_rejection(case, rc, out_text)
    return check_partition(case, rc, out_text, spans)


def check_partition(case, rc, out_text: str, spans=None) -> str | None:
    if rc != EXIT_OK:
        return f"exit code {rc}, expected {EXIT_OK}"
    doc = json.loads(out_text)
    if doc["mode"] != expected_mode(case.recipe):
        return f"mode {doc['mode']}, expected {expected_mode(case.recipe)}"
    inst = case.inst
    wg = WeightedGraph(Graph.from_edges(inst.n, inst.edges), tuple(inst.weights))
    req = PartitionRequest(tuple(inst.terminals), tuple(inst.demands))
    part = GLPartition(tuple(frozenset(p) for p in doc["parts"]), doc["deviation"])
    t0 = perf_counter_ns()
    report = verify_partition(wg, req, part, deviation_rule(case.recipe, wg.w_max))
    if spans is not None:
        spans.add("verify.verify_partition", perf_counter_ns() - t0)
    if not report.ok:
        return f"verify_partition rejected it: {report.first_violation}"
    if case.recipe.weighted or case.recipe.member:
        achieved = [sum(inst.weights[v] for v in p) for p in doc["parts"]]
    else:
        achieved = [len(p) for p in doc["parts"]]
    deviation = max(abs(a - d) for a, d in zip(achieved, inst.demands))
    if deviation != doc["deviation"]:
        return f"reported deviation {doc['deviation']}, actual {deviation}"
    return None


def check_rejection(case, rc, out_text: str) -> str | None:
    if rc != EXIT_PRECONDITION:
        return f"exit code {rc}, expected {EXIT_PRECONDITION} for a {case.recipe.plant}"
    doc = json.loads(out_text)
    adj = case.inst.adjacency()
    k = case.inst.k
    plant = case.recipe.plant
    if doc["separator"] is not None:
        why = separator_fault(adj, k, doc["separator"])
        if why:
            return why
    if plant == "separator":
        if not doc["class_member"] or doc["connectivity_at_least_k"]:
            return "separator plant: expected a class member that is not k-connected"
        return None
    vio = doc["class_violation"]
    if vio is None or vio["kind"] != plant:
        return f"expected a {plant} violation, got {vio and vio['kind']}"
    if plant == "hole" and not doc["connectivity_at_least_k"]:
        return "hole plant lost k-connectivity"
    return WITNESS_FAULT[plant](adj, vio["vertices"])


def _induced_c4(adj, quad) -> bool:
    degs = [sum(1 for y in quad if y in adj[x]) for x in quad]
    return degs == [2, 2, 2, 2]


def hole_fault(adj, cycle) -> str | None:
    m = len(cycle)
    if m < 5 or len(set(cycle)) != m:
        return f"hole witness {cycle} is not a cycle of 5 or more vertices"
    for i, j in combinations(range(m), 2):
        consecutive = j - i == 1 or (i == 0 and j == m - 1)
        if (cycle[j] in adj[cycle[i]]) != consecutive:
            return f"hole witness {cycle} is not a chordless cycle"
    return None


def house_fault(adj, verts) -> str | None:
    if len(set(verts)) == 5:
        for roof in verts:
            body = [v for v in verts if v != roof]
            if not _induced_c4(adj, body):
                continue
            seen = [v for v in body if v in adj[roof]]
            if len(seen) == 2 and seen[1] in adj[seen[0]]:
                return None
    return f"house witness {verts} has no 4-cycle roofed over one edge"


def overlap_fault(adj, verts) -> str | None:
    quads = [set(q) for q in combinations(verts, 4) if _induced_c4(adj, q)]
    for p, q in combinations(quads, 2):
        if len(p & q) >= 2 and p | q == set(verts):
            return None
    return f"overlap witness {verts} is not two 4-cycles sharing two vertices"


def separator_fault(adj, k: int, doc) -> str | None:
    sep = set(doc["separator"])
    s, t = doc["separated_pair"]
    if len(sep) >= k or s in sep or t in sep:
        return f"separator {sorted(sep)} for ({s}, {t}) is not a cut of size < {k}"
    seen = {s}
    queue = deque([s])
    while queue:
        for y in adj[queue.popleft()]:
            if y not in seen and y not in sep:
                seen.add(y)
                queue.append(y)
    if t in seen:
        return f"removing {sorted(sep)} leaves {s} and {t} connected"
    return None


WITNESS_FAULT = {"hole": hole_fault, "house": house_fault, "c4-overlap": overlap_fault}
