"""Instance file parsing, formatting, and round trips."""

from __future__ import annotations

import random

import pytest

from glpart import (
    Graph,
    GraphFormatError,
    Instance,
    PartitionRequest,
    WeightedGraph,
    generate_almost_chordal,
    generate_ktree,
    load_instance,
)
from glpart.instances import parse_instance

from bruteforce import format_instance, save_instance

GOOD = """\
# tiny 2-path split
5 4 2
1 1 1 1 1
0 4
2 3
0 1
1 2
2 3
3 4
"""

# a bad edge line and a fragment of the error it draws; bad_edge_line puts
# it on physical line 9 of GOOD, after a comment line and a blank line
EDGE_LINE_ERRORS = [
    ("1 x", "expected integers"),
    ("1", "expected 2 integers, got 1"),
    ("1 2 3", "expected 2 integers, got 3"),
    ("-1 2", "endpoint out of range in '-1 2'"),
    ("1 5", "endpoint out of range in '1 5'"),
    ("2 2", "self-loop at 2"),
    ("5 5", "endpoint out of range in '5 5'"),
]


def bad_edge_line(text: str, bad: str) -> str:
    return text.replace("\n1 2\n", f"\n# edge 1-2 follows\n\n{bad}\n")


class TestParse:
    def test_good(self):
        inst = parse_instance(GOOD)
        assert inst.graph.n == 5
        assert inst.graph.edge_count() == 4
        assert inst.request.terminals == (0, 4)
        assert inst.request.demands == (2, 3)
        assert inst.is_unit()

    def test_comments_and_blanks_ignored(self):
        noisy = "\n\n# header\n" + GOOD.replace("0 1\n", "0 1  # edge\n\n")
        inst = parse_instance(noisy)
        assert inst.graph.edge_count() == 4

    def test_error_carries_line_number(self):
        cases = [(GOOD.replace("1 1 1 1 1", "1 1 one 1 1"), "expected integers", 3)]
        cases += [(bad_edge_line(GOOD, bad), frag, 9) for bad, frag in EDGE_LINE_ERRORS]
        for text, fragment, line in cases:
            with pytest.raises(GraphFormatError) as ei:
                parse_instance(text)
            assert fragment in str(ei.value)
            assert ei.value.line == line

    @pytest.mark.parametrize(
        "mangle,fragment",
        [
            (lambda s: s.replace("5 4 2", "5 4"), "3 integers"),
            (lambda s: s.replace("5 4 2", "0 4 2"), "positive"),
            (lambda s: s.replace("0 4\n", "0 9\n"), "out of range"),
            (lambda s: s.replace("0 4\n", "0 0\n"), "distinct"),
            (lambda s: s.replace("3 4\n", ""), "content lines"),
            (lambda s: s.replace("3 4\n", "3 3\n"), "self-loop"),
            (lambda s: s.replace("3 4\n", "3 9\n"), "out of range"),
            (lambda s: s.replace("1 1 1 1 1", "1 1 0 1 1"), "positive"),
            (lambda s: "", "header"),
        ]
        + [(lambda s, bad=bad: bad_edge_line(s, bad), fragment)
           for bad, fragment in EDGE_LINE_ERRORS],
    )
    def test_malformed_rejected(self, mangle, fragment):
        with pytest.raises(GraphFormatError) as ei:
            parse_instance(mangle(GOOD))
        assert fragment in str(ei.value)

    def test_repeated_edge_kept_once(self):
        inst = parse_instance(GOOD.replace("\n1 2\n", "\n1 0\n"))
        assert inst.graph.edge_count() == 4 - 1
        assert inst.graph.adj[1] == {0}


class TestIterationOrder:
    """Each neighbour set iterates as ``Graph.from_edges`` builds it from
    the file's edges in file order: both fill one list per vertex in edge
    order and freeze it once. No output reads that order (see
    ``test_metamorphic``), but the two builders stay one construction."""

    @pytest.mark.parametrize(
        "kind,n",
        [("ktree", n) for n in (5, 60, 500, 2000)]
        + [("member", n) for n in (40, 400, 2000)],
    )
    @pytest.mark.parametrize("edit", ["as-written", "shuffled", "swapped"])
    def test_matches_from_edges(self, kind, n, edit):
        if kind == "ktree":
            g = generate_ktree(n, 3, n)
        else:
            g = generate_almost_chordal(n, 3, n // 25, n)
        inst = Instance(WeightedGraph.unit(g), PartitionRequest((0, 1), (1, n - 1)))
        lines = format_instance(inst).splitlines()
        head, edge_lines = lines[:4], lines[4:]
        if edit == "shuffled":
            random.Random(n).shuffle(edge_lines)
        elif edit == "swapped":
            edge_lines = [" ".join(line.split()[::-1]) for line in edge_lines]
        text = "\n".join(head + edge_lines) + "\n"
        parsed = parse_instance(text).graph
        edges = [tuple(map(int, line.split())) for line in edge_lines]
        built = Graph.from_edges(n, edges)
        assert parsed == g
        assert [tuple(s) for s in parsed.adj] == [tuple(s) for s in built.adj]


class TestRoundTrip:
    def test_format_parse_identity(self):
        inst = parse_instance(GOOD)
        again = parse_instance(format_instance(inst))
        assert again.graph == inst.graph
        assert again.request == inst.request
        assert again.wgraph.weights == inst.wgraph.weights

    def test_weighted_round_trip(self):
        g = generate_ktree(9, 2, 4)
        wg = WeightedGraph(g, tuple((v % 4) + 1 for v in range(9)))
        inst = Instance(wg, PartitionRequest((0, 8), (10, wg.total_weight() - 10)))
        again = parse_instance(format_instance(inst, comment="round trip"))
        assert again.wgraph == wg
        assert again.request == inst.request

    def test_format_is_stable(self):
        inst = parse_instance(GOOD)
        assert format_instance(inst) == format_instance(inst)

    def test_save_and_load(self, tmp_path):
        inst = parse_instance(GOOD)
        path = tmp_path / "inst.txt"
        save_instance(inst, str(path))
        again = load_instance(str(path))
        assert again.graph == inst.graph
        assert again.request == inst.request

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_instance(str(tmp_path / "nope.txt"))
