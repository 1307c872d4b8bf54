"""Plain-text instance files.

Layout, after stripping blank lines and ``#`` comments:

    n m k
    w_0 .. w_{n-1}        (all 1 means unweighted)
    t_1 .. t_k            (terminals, distinct)
    d_1 .. d_k            (demands; counts when unweighted, weights otherwise)
    u v                   (m edge lines, 0-based)

Parse errors carry the 1-based line number of the offending physical line.
The writer emits edges as u < v in sorted order, so output is byte-stable.

The reader checks the four head lines one by one, and sizes nothing by n
before the weights line has shown n integers. It then reads the edge lines
in one pass straight into neighbour sets: a line that holds two distinct
ids in 0..n-1 costs one split, two ``int`` calls, one test and two set
insertions, and any other line is handed to the field, range and
self-loop checks, in that order, for its error. A repeated edge is kept
once. The sets are built by insertion in file order, exactly as
``Graph.from_edges`` builds them, because a frozenset's iteration order
depends on how its elements went in, and ``chordal`` picks the nonadjacent
pair of its chordality witness in that order: built any other way, the
same file could give a different ``check`` output.
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


def _edge_error(raw: str, line_no: int, n: int) -> GraphFormatError:
    """The error for an edge line that failed the fast path, found by the
    field, range and self-loop checks in that order."""
    u, v = _int_fields(raw, line_no, 2)
    if not (0 <= u < n and 0 <= v < n):
        return GraphFormatError(f"edge endpoint out of range in {raw!r}", line_no)
    return GraphFormatError(f"self-loop at {u}", line_no)


def parse_instance(text: str) -> Instance:
    lines = [
        (i, body)
        for i, raw in enumerate(text.splitlines(), start=1)
        if (body := raw.partition("#")[0].strip())
    ]
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

    nbrs: list[set[int]] = [set() for _ in range(n)]
    for line_no, raw in lines[4:]:
        try:
            u, v = raw.split()
            u, v = int(u), int(v)
        except ValueError:
            u = v = -1  # not two integers: _edge_error says what is wrong
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise _edge_error(raw, line_no, n)
        nbrs[u].add(v)
        nbrs[v].add(u)

    graph = Graph(tuple(map(frozenset, nbrs)))
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
