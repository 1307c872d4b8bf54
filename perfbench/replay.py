"""Traced replay: the CLI's work, stage by stage, timed from outside.

Each replay calls the same public functions of ``glpart`` in the same order
as ``glpart partition`` (auto mode) or ``glpart check`` does, and times each
call with ``perf_counter_ns``. Nothing inside the package is instrumented.
The replay returns what the CLI would print for the fields the gate compares,
so a replay that drifts from the real path shows up as a mismatch.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns

from glpart import almost_chordal, c4, chordal, connectivity, instances, partition, recognition
from glpart.graph import WeightedGraph, induced_subgraph

CONNECTIVITY = "connectivity.vertex_connectivity_at_least"
SOLVERS = ("partition.gl_partition_chordal", "partition.gl_partition_chordal_weighted")


class Spans:
    """Summed span time, call count and counters, keyed by layer name."""

    def __init__(self):
        self.ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def add(self, name: str, ns: int) -> None:
        self.ns[name] += ns
        self.calls[name] += 1

    def call(self, name: str, fn, *args, **kwargs):
        t0 = perf_counter_ns()
        out = fn(*args, **kwargs)
        self.add(name, perf_counter_ns() - t0)
        return out

    def merge(self, other: "Spans") -> None:
        for table, extra in ((self.ns, other.ns), (self.calls, other.calls),
                             (self.counts, other.counts)):
            for key, value in extra.items():
                table[key] += value

    def total_ns(self) -> int:
        return sum(self.ns.values())


def replay(path: str, check: bool, skip_checks: bool, spans: Spans) -> dict:
    """Replay one CLI operation; returns the fields the gate compares."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    inst = spans.call("instances.parse_instance", instances.parse_instance, text)
    g = inst.graph
    order = spans.call("chordal.mcs_order", chordal.mcs_order, g)
    witness = spans.call("chordal.peo_violation", chordal.peo_violation, g, order)
    if check:
        return _check(inst, spans)
    if witness is None:
        return _chordal(inst, skip_checks, spans)
    return _almost_chordal(inst, spans)


def _recognise(g, spans: Spans):
    """``is_hh_i42_free`` stage by stage; returns the violation kind or None."""
    catalog = spans.call("c4.enumerate_induced_c4", c4.enumerate_induced_c4, g)
    spans.counts["c4.cycles"] += len(catalog)
    kind = None
    vio = spans.call("recognition.scan_catalog_violations",
                     recognition.scan_catalog_violations, g, catalog)
    if vio is not None:
        kind = vio.kind
    elif spans.call("recognition.find_hole", recognition.find_hole, g) is not None:
        kind = "hole"
    if kind is not None:
        spans.counts["recognition.rejections"] += 1
    return kind


def _check(inst, spans: Spans) -> dict:
    kind = _recognise(inst.graph, spans)
    conn = spans.call(CONNECTIVITY, connectivity.vertex_connectivity_at_least,
                      inst.graph, inst.request.k)
    return {"class_member": kind is None, "violation": kind,
            "connectivity_at_least_k": conn.connected}


def _chordal(inst, skip_checks: bool, spans: Spans) -> dict:
    g, req = inst.graph, inst.request
    if not skip_checks:
        spans.call(CONNECTIVITY, connectivity.vertex_connectivity_at_least, g, req.k)
    spans.counts["partition.vertices"] += g.n
    if inst.is_unit():
        part = spans.call(SOLVERS[0], partition.gl_partition_chordal, g, req,
                          validate=False)
        mode = "chordal-exact"
    else:
        part = spans.call(SOLVERS[1], partition.gl_partition_chordal_weighted,
                          inst.wgraph, req, validate=False)
        mode = "chordal-weighted"
    return {"parts": [sorted(p) for p in part.parts], "deviation": part.deviation,
            "mode": mode}


def _almost_chordal(inst, spans: Spans) -> dict:
    """``gl_partition_almost_chordal`` with validation on, stage by stage."""
    wg, req = inst.wgraph, inst.request
    g, k = wg.graph, req.k
    if _recognise(g, spans) is not None:
        return {"mode": "rejected"}
    spans.call(CONNECTIVITY, connectivity.vertex_connectivity_at_least, g, k)

    peel_idx = [i for i in range(k) if req.demands[i] == wg.weights[req.terminals[i]]]
    keep_idx = [i for i in range(k) if i not in peel_idx]
    peeled = {req.terminals[i] for i in peel_idx}
    g1, back = spans.call("graph.induced_subgraph", induced_subgraph, g,
                          [v for v in g.vertices() if v not in peeled])
    fwd = {old: new for new, old in enumerate(back)}
    weights1 = tuple(wg.weights[old] for old in back)
    terminals1 = tuple(fwd[req.terminals[i]] for i in keep_idx)

    g2, chords = spans.call("almost_chordal.add_terminal_chords",
                            almost_chordal.add_terminal_chords, g1, terminals1)
    plan = spans.call("almost_chordal.build_contraction_plan",
                      almost_chordal.build_contraction_plan, g2, terminals1)
    spans.counts["almost_chordal.chords"] += len(chords)
    spans.counts["almost_chordal.contracted_edges"] += len(plan.contraction_edges)
    w2 = tuple(sum(weights1[v] for v in grp) for grp in plan.merge_map.groups)
    inner_wg = WeightedGraph(plan.contracted.graph, w2)
    spans.call(CONNECTIVITY, connectivity.vertex_connectivity_at_least,
               inner_wg.graph, len(keep_idx))
    inner_req = partition.PartitionRequest(
        tuple(plan.terminal_map[t] for t in terminals1),
        tuple(req.demands[i] for i in keep_idx))
    spans.counts["partition.vertices"] += inner_wg.n
    inner = spans.call(SOLVERS[1], partition.gl_partition_chordal_weighted,
                       inner_wg, inner_req, validate=False,
                       allow_overweight_terminals=True)

    parts: list[frozenset[int]] = [frozenset()] * k
    for i in peel_idx:
        parts[i] = frozenset((req.terminals[i],))
    for pos, i in enumerate(keep_idx):
        unfolded = spans.call("graph.MergeMap.expand", plan.merge_map.expand,
                              inner.parts[pos])
        parts[i] = frozenset(back[v] for v in unfolded)
    deviation = max(abs(wg.weight_of(p) - d) for p, d in zip(parts, req.demands))
    return {"parts": [sorted(p) for p in parts], "deviation": deviation,
            "mode": "almost-chordal"}


def cli_view(doc: dict, check: bool) -> dict:
    """The fields of a CLI JSON output that a replay reproduces."""
    if check:
        vio = doc["class_violation"]
        return {"class_member": doc["class_member"], "violation": vio and vio["kind"],
                "connectivity_at_least_k": doc["connectivity_at_least_k"]}
    return {"parts": doc["parts"], "deviation": doc["deviation"], "mode": doc["mode"]}
