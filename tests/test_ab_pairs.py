"""The paired A/B summariser of ``tools/ab_pairs.py``, on canned result
lines; no benchmark runs."""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import ab_pairs  # noqa: E402

SPEC = [
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "throughput_vps", "unit": "vertex/s", "better": "higher", "bound": 0.25},
]


def line(p50: float, vps: float, failed: int = 0) -> str:
    """A result line as ``perfbench/run.py`` prints it last."""
    return json.dumps({
        "correct": not failed, "attempted": 100, "failed": failed,
        "metrics": {"latency_p50_ms": {"value": p50, "unit": "ms"},
                    "throughput_vps": {"value": vps, "unit": "vertex/s"}},
    })


def pairs_of(old: list[tuple[float, float]], new: list[tuple[float, float]]):
    return [(json.loads(line(*a)), json.loads(line(*b))) for a, b in zip(old, new)]


def by_metric(rows):
    return {r["metric"]: r for r in rows}


def test_parse_run_reads_the_last_two_lines():
    stdout = ('setting up\n{"workload": "w", "outputs_digest": "ab12"}\n'
              + line(1.0, 2.0) + "\n\n")
    result, digest = ab_pairs.parse_run(stdout)
    assert result["metrics"]["latency_p50_ms"]["value"] == 1.0
    assert digest == "ab12"
    assert ab_pairs.parse_run(line(1.0, 2.0))[1] is None
    with pytest.raises(ValueError):
        ab_pairs.parse_run("\n")


def test_clear_gain_meets_the_claim_bar():
    old = [(1.00 + 0.01 * i, 1000.0 - i) for i in range(10)]
    new = [(0.90 + 0.01 * i, 1100.0 - i) for i in range(10)]
    rows = by_metric(ab_pairs.summarise(pairs_of(old, new), SPEC))
    p50, vps = rows["latency_p50_ms"], rows["throughput_vps"]
    assert (p50["wins"], p50["losses"], p50["pairs"]) == (10, 0, 10)
    assert p50["parent"] == pytest.approx(1.045)
    assert p50["change"] == pytest.approx(0.945)
    assert p50["rel"] == pytest.approx(-0.1 / 1.045)
    assert p50["claim"] and not p50["regress"]
    assert vps["wins"] == 10 and vps["claim"] and not vps["regress"]
    assert vps["rel"] == pytest.approx(100 / 995.5)


def test_ties_count_for_neither_side():
    old = [(1.0, 1000.0)] * 10
    new = [(1.0, 1000.0)] * 9 + [(0.5, 2000.0)]
    rows = by_metric(ab_pairs.summarise(pairs_of(old, new), SPEC))
    assert (rows["latency_p50_ms"]["wins"], rows["latency_p50_ms"]["losses"]) == (1, 0)
    assert not rows["latency_p50_ms"]["claim"]


def test_eight_wins_in_ten_miss_the_claim():
    old = [(1.0, 1000.0)] * 10
    new = [(0.5, 2000.0)] * 8 + [(1.5, 500.0)] * 2
    rows = by_metric(ab_pairs.summarise(pairs_of(old, new), SPEC))
    assert rows["latency_p50_ms"]["wins"] == 8
    assert rows["latency_p50_ms"]["losses"] == 2
    assert not rows["latency_p50_ms"]["claim"]


def test_gain_inside_the_parent_iqr_misses_the_claim():
    # the parent's runs spread over 0.2 ms; every pair wins by 0.01 ms
    old = [(1.0 + 0.2 * (i % 2), 1000.0) for i in range(10)]
    new = [(p50 - 0.01, vps) for p50, vps in old]
    rows = by_metric(ab_pairs.summarise(pairs_of(old, new), SPEC))
    p50 = rows["latency_p50_ms"]
    assert p50["wins"] == 10
    assert p50["parent_iqr"] == pytest.approx(0.2)
    assert not p50["claim"]


def test_worsening_past_the_bound_is_flagged():
    old = [(1.0, 1000.0)] * 10
    new = [(1.3, 700.0)] * 10
    rows = by_metric(ab_pairs.summarise(pairs_of(old, new), SPEC))
    assert rows["latency_p50_ms"]["regress"] and rows["throughput_vps"]["regress"]
    new = [(1.2, 800.0)] * 10
    rows = by_metric(ab_pairs.summarise(pairs_of(old, new), SPEC))
    assert not rows["latency_p50_ms"]["regress"]
    assert not rows["throughput_vps"]["regress"]


def test_iqr_of_fewer_than_two_runs_is_zero():
    assert ab_pairs.iqr([3.0]) == 0.0
    assert ab_pairs.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0)


def test_report_names_every_metric_and_the_failures():
    pairs = [(json.loads(line(1.0, 1000.0, failed=1)), json.loads(line(0.9, 1100.0)))]
    text = ab_pairs.format_rows("chordal-validated", pairs,
                                ab_pairs.summarise(pairs, SPEC))
    head, _, *rows = text.splitlines()
    assert head == ("== chordal-validated: 1 pairs, failed operations "
                    "parent 1/100, change 0/100")
    assert [r.split()[0] for r in rows] == ["latency_p50_ms", "throughput_vps"]
    assert "-10.0%" in rows[0] and "+10.0%" in rows[1]
    assert all(r.endswith(" ok") for r in rows)
