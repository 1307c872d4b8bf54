"""The verifier must catch every way a claimed partition can be wrong."""

from __future__ import annotations

import pytest

from glpart import (
    DeviationRule,
    GLPartition,
    PartitionRequest,
    WeightedGraph,
    verify_partition,
)

from bruteforce import complete_graph, path_graph


@pytest.fixture
def setting():
    g = path_graph(6)
    wg = WeightedGraph.unit(g)
    req = PartitionRequest((0, 5), (3, 3))
    good = GLPartition((frozenset({0, 1, 2}), frozenset({3, 4, 5})), 0)
    return wg, req, good


def report(setting, parts, rule=None):
    wg, req, _ = setting
    return verify_partition(
        wg, req, GLPartition(parts, 0), rule or DeviationRule.exact()
    )


class TestRuleParsing:
    def test_exact(self):
        r = DeviationRule.parse("exact")
        assert r.admits(3, 5, 5) and not r.admits(3, 4, 5)

    def test_window_is_strict(self):
        r = DeviationRule.parse("window:3")
        assert r.admits(1, 7, 5) and r.admits(1, 3, 5)
        assert not r.admits(1, 8, 5) and not r.admits(1, 2, 5)

    def test_slack_counts_size(self):
        r = DeviationRule.parse("slack:1")
        assert r.admits(4, 99, 5) and not r.admits(3, 5, 5)

    @pytest.mark.parametrize("bad", ["", "window", "slack:", "window:x", "near:2"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            DeviationRule.parse(bad)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            DeviationRule.window(0)
        with pytest.raises(ValueError):
            DeviationRule.slack(-1)


class TestVerifier:
    def test_accepts_good(self, setting):
        wg, req, good = setting
        rep = verify_partition(wg, req, good, DeviationRule.exact())
        assert rep.ok and rep.disjoint and rep.covers
        assert rep.first_violation is None
        assert all(p.ok for p in rep.parts)

    def test_overlap_detected(self, setting):
        rep = report(setting, (frozenset({0, 1, 2, 3}), frozenset({3, 4, 5})))
        assert not rep.ok and not rep.disjoint
        assert "parts" in rep.first_violation

    def test_gap_detected(self, setting):
        rep = report(setting, (frozenset({0, 1}), frozenset({3, 4, 5})))
        assert not rep.ok and not rep.covers

    def test_missing_terminal(self, setting):
        rep = report(setting, (frozenset({1, 2, 3}), frozenset({0, 4, 5})))
        assert not rep.ok
        assert not rep.parts[0].has_terminal
        # 0-4-5 is even disconnected on a path
        assert not rep.parts[1].connected

    def test_disconnected_part(self, setting):
        rep = report(setting, (frozenset({0, 1, 5}), frozenset({2, 3, 4})))
        assert not rep.ok
        assert not rep.parts[0].connected
        assert "connected" in rep.first_violation or "terminal" in rep.first_violation

    def test_demand_violation(self, setting):
        rep = report(setting, (frozenset({0, 1}), frozenset({2, 3, 4, 5})))
        assert not rep.ok
        assert not rep.parts[0].demand_ok and not rep.parts[1].demand_ok

    def test_empty_part_is_violation(self, setting):
        rep = report(setting, (frozenset(), frozenset(range(6))))
        assert not rep.ok
        assert "empty" in rep.first_violation

    def test_wrong_part_count_raises(self, setting):
        with pytest.raises(ValueError):
            report(setting, (frozenset(range(6)),))

    def test_out_of_range_vertex_raises(self, setting):
        with pytest.raises(ValueError):
            report(setting, (frozenset({0, 1, 99}), frozenset({3, 4, 5})))

    def test_weighted_window(self):
        g = complete_graph(4)
        wg = WeightedGraph(g, (5, 1, 1, 5))
        req = PartitionRequest((0, 3), (6, 6))
        part = GLPartition((frozenset({0, 1}), frozenset({2, 3})), 0)
        assert verify_partition(wg, req, part, DeviationRule.exact()).ok
        skew = GLPartition((frozenset({0}), frozenset({1, 2, 3})), 0)
        assert not verify_partition(wg, req, skew, DeviationRule.exact()).ok
        assert verify_partition(wg, req, skew, DeviationRule.window(5)).ok

    def test_part_reports_carry_numbers(self, setting):
        wg, req, good = setting
        rep = verify_partition(wg, req, good, DeviationRule.exact())
        assert [p.size for p in rep.parts] == [3, 3]
        assert [p.weight for p in rep.parts] == [3, 3]
        assert [p.demand for p in rep.parts] == [3, 3]
