"""Instance file parsing, formatting, and round trips."""

from __future__ import annotations

import pytest

from glpart import (
    GraphFormatError,
    Instance,
    PartitionRequest,
    WeightedGraph,
    format_instance,
    generate_ktree,
    load_instance,
    parse_instance,
)

from bruteforce import save_instance

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
        bad = GOOD.replace("1 1 1 1 1", "1 1 one 1 1")
        with pytest.raises(GraphFormatError) as ei:
            parse_instance(bad)
        assert ei.value.line == 3

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
        ],
    )
    def test_malformed_rejected(self, mangle, fragment):
        with pytest.raises(GraphFormatError) as ei:
            parse_instance(mangle(GOOD))
        assert fragment in str(ei.value)


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
