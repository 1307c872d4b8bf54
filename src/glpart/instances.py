"""Plain-text instance files.

Layout, after stripping blank lines and ``#`` comments:

    n m k
    w_0 .. w_{n-1}        (all 1 means unweighted)
    t_1 .. t_k            (terminals, distinct)
    d_1 .. d_k            (demands; counts when unweighted, weights otherwise)
    u v                   (m edge lines, 0-based)

Parse errors carry the 1-based line number of the offending physical line.
The writer emits edges as u < v in sorted order, so output is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphFormatError
from .graph import Graph, WeightedGraph
from .partition import PartitionRequest


@dataclass(frozen=True)
class Instance:
    """A weighted graph together with its partition request."""

    wgraph: WeightedGraph
    request: PartitionRequest

    @property
    def graph(self) -> Graph:
        return self.wgraph.graph

    def is_unit(self) -> bool:
        return self.wgraph.is_unit()


def _int_fields(raw: str, line_no: int, expect: int | None = None) -> list[int]:
    fields = raw.split()
    try:
        values = [int(f) for f in fields]
    except ValueError:
        raise GraphFormatError(f"expected integers, got {raw!r}", line_no) from None
    if expect is not None and len(values) != expect:
        raise GraphFormatError(
            f"expected {expect} integers, got {len(values)}", line_no
        )
    return values


def parse_instance(text: str) -> Instance:
    lines: list[tuple[int, str]] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((i, body))
    if len(lines) < 4:
        raise GraphFormatError("file needs header, weights, terminals and demands")

    line_no, head = lines[0]
    header = _int_fields(head, line_no, 3)
    n, m, k = header
    if n < 1:
        raise GraphFormatError("vertex count must be positive", line_no)
    if m < 0 or k < 1:
        raise GraphFormatError("edge and terminal counts must be sensible", line_no)
    if len(lines) != 4 + m:
        raise GraphFormatError(
            f"expected {4 + m} content lines for m={m}, found {len(lines)}"
        )

    line_no, raw = lines[1]
    weights = _int_fields(raw, line_no, n)
    if any(w < 1 for w in weights):
        raise GraphFormatError("weights must be positive", line_no)

    line_no, raw = lines[2]
    terminals = _int_fields(raw, line_no, k)
    for t in terminals:
        if not (0 <= t < n):
            raise GraphFormatError(f"terminal {t} out of range", line_no)
    if len(set(terminals)) != k:
        raise GraphFormatError("terminals must be distinct", line_no)

    line_no, raw = lines[3]
    demands = _int_fields(raw, line_no, k)

    edges = []
    for line_no, raw in lines[4:]:
        u, v = _int_fields(raw, line_no, 2)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge endpoint out of range in {raw!r}", line_no)
        if u == v:
            raise GraphFormatError(f"self-loop at {u}", line_no)
        edges.append((u, v) if u < v else (v, u))

    graph = Graph.from_edges(n, edges)
    wgraph = WeightedGraph(graph, tuple(weights))
    request = PartitionRequest(tuple(terminals), tuple(demands))
    return Instance(wgraph, request)


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def format_instance(inst: Instance, comment: str | None = None) -> str:
    g = inst.graph
    edges = g.edges()
    out = []
    if comment:
        out.append(f"# {comment}")
    out.append(f"{g.n} {len(edges)} {inst.request.k}")
    out.append(" ".join(str(w) for w in inst.wgraph.weights))
    out.append(" ".join(str(t) for t in inst.request.terminals))
    out.append(" ".join(str(d) for d in inst.request.demands))
    out.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(out) + "\n"
