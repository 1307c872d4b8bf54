"""Plain-text instance files.

Layout, after stripping blank lines and ``#`` comments:

    n m k
    w_0 .. w_{n-1}        (all 1 means unweighted)
    t_1 .. t_k            (terminals, distinct)
    d_1 .. d_k            (demands; counts when unweighted, weights otherwise)
    u v                   (m edge lines, 0-based)

Parse errors carry the 1-based line number of the offending physical line.
The writer emits edges as u < v in sorted order, so output is byte-stable.

The reader splits the text into physical lines once and finds the first
four content lines (header, weights, terminals, demands). It reads the
header, then the weights line, before it sizes anything by n: n counts
only once the weights line has shown n integers, so a header that claims
10**12 vertices over a short weights line allocates nothing by n. One loop
over the remaining lines then counts the content lines, fills each vertex's
neighbour list, frozen into a set once at the end, and stops filling at the
first bad edge line, keeping only its position. ``#`` comments are stripped
from those lines only when some ``#`` follows the demands line; otherwise
each line goes straight to ``str.split``. A line that holds two distinct
ids spelt as ``str`` writes them costs one split, two dict lookups, one
test and two list appends; another spelling (``+3``, ``007``) goes through
``int`` and the range test. A repeated edge is kept once.

Errors found on the way are raised after the loop in the order the lines
are checked: the content-line count, the weights line, the terminals line,
the demands line, then the first bad edge line with the field, range and
self-loop checks in that order. Each carries its physical line number.
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


def _int_fields(raw: str, line_no: int, expect: int) -> list[int]:
    fields = raw.split()
    try:
        values = list(map(int, fields))
    except ValueError:
        raise GraphFormatError(f"expected integers, got {raw!r}", line_no) from None
    if len(values) != expect:
        raise GraphFormatError(
            f"expected {expect} integers, got {len(values)}", line_no
        )
    return values


def _weights(raw: str, line_no: int, n: int) -> list[int]:
    weights = _int_fields(raw, line_no, n)
    if min(weights) < 1:
        raise GraphFormatError("weights must be positive", line_no)
    return weights


def _edge_error(raw: str, line_no: int, n: int) -> GraphFormatError:
    """The error for the physical edge line ``raw`` that stopped the loop,
    found by the field, range and self-loop checks in that order."""
    body = raw.partition("#")[0].strip()
    u, v = _int_fields(body, line_no, 2)
    if not (0 <= u < n and 0 <= v < n):
        return GraphFormatError(f"edge endpoint out of range in {body!r}", line_no)
    return GraphFormatError(f"self-loop at {u}", line_no)


def parse_instance(text: str) -> Instance:
    lines = text.splitlines(keepends=True)
    head: list[tuple[int, str]] = []
    for i, raw in enumerate(lines):
        if body := raw.partition("#")[0].strip():
            head.append((i + 1, body))
            if len(head) == 4:
                break
    else:
        raise GraphFormatError("file needs header, weights, terminals and demands")
    first = i + 1  # index of the first line after the demands line
    block = lines[first:]
    if text.find("#", sum(map(len, lines[:first]))) >= 0:
        block = [raw.partition("#")[0] for raw in block]

    line_no, raw = head[0]
    n, m, k = _int_fields(raw, line_no, 3)
    if n < 1:
        raise GraphFormatError("vertex count must be positive", line_no)
    if m < 0 or k < 1:
        raise GraphFormatError("edge and terminal counts must be sensible", line_no)
    line_no, raw = head[1]
    try:
        weights = _weights(raw, line_no, n)
    except GraphFormatError:
        # raised again after the count; an error kept in a local would hold
        # this frame's traceback, and so the frame itself, in a cycle
        weights = None

    rows = map(str.split, block)
    blanks = 0
    bad = False
    if weights is not None:
        # n is now bounded by the length of the weights line
        nbrs: list[list[int]] = [[] for _ in range(n)]
        ids = {str(v): v for v in range(n)}
        for fields in rows:
            try:
                a, b = fields
                u = ids[a]
                v = ids[b]
            except ValueError:
                if not fields:
                    blanks += 1
                    continue
                u = v = -1  # not two fields
            except KeyError:
                # another spelling (+3, 007) or out of range: int() decides
                try:
                    u, v = int(a), int(b)
                except ValueError:
                    u = v = -1
                if not (0 <= u < n and 0 <= v < n):
                    u = v = -1
            if u == v:
                bad = True
                break
            nbrs[u].append(v)
            nbrs[v].append(u)
    # the lines the loop did not reach: those after the first bad edge
    # line, or every line when the weights line failed
    rest = list(rows)
    found = 4 + len(block) - blanks - rest.count([])
    if found != 4 + m:
        raise GraphFormatError(
            f"expected {4 + m} content lines for m={m}, found {found}"
        )
    if weights is None:
        _weights(raw, line_no, n)  # raises the weights line's error again

    line_no, raw = head[2]
    terminals = _int_fields(raw, line_no, k)
    for t in terminals:
        if not (0 <= t < n):
            raise GraphFormatError(f"terminal {t} out of range", line_no)
    if len(set(terminals)) != k:
        raise GraphFormatError("terminals must be distinct", line_no)

    line_no, raw = head[3]
    demands = _int_fields(raw, line_no, k)

    if bad:
        at = len(block) - len(rest) - 1
        raise _edge_error(lines[first + at], first + at + 1, n)

    graph = Graph(tuple(map(frozenset, nbrs)))
    wgraph = WeightedGraph(graph, tuple(weights))
    request = PartitionRequest(tuple(terminals), tuple(demands))
    return Instance(wgraph, request)


def load_instance(path: str) -> Instance:
    """Parse the instance file at ``path``.

    The file is read as bytes and decoded as strict UTF-8, so a bad byte
    raises ``UnicodeDecodeError`` with the same message and position that
    a text-mode read gave. Line ends are left to ``str.splitlines``, which
    already ends a line at CRLF and at a lone CR as well as at LF, so a
    CRLF or CR file parses as its LF copy does.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_instance(data.decode("utf-8"))


def format_parts(
    n: int,
    later: list[list[int]],
    weights: tuple[int, ...],
    request: PartitionRequest,
    comment: str | None = None,
) -> str:
    """The text of an instance given by its parts: n vertices, for each
    vertex u its neighbours v > u in ascending order, the weights and the
    request, after a ``# comment`` line when ``comment`` is given. The
    edge lines come out in ascending (u, v) order, each vertex's from one
    ``str.join`` over its list, and m is the lists' total length.
    ``generate`` passes the lists its generator reads off the draws, with
    no ``Graph``."""
    out = []
    if comment:
        out.append(f"# {comment}")
    out.append(f"{n} {sum(map(len, later))} {request.k}")
    out.append(" ".join(map(str, weights)))
    out.append(" ".join(map(str, request.terminals)))
    out.append(" ".join(map(str, request.demands)))
    ids = list(map(str, range(n)))
    name = ids.__getitem__
    out += [f"{u} " + f"\n{u} ".join(map(name, vs)) for u, vs in zip(ids, later) if vs]
    return "\n".join(out) + "\n"
