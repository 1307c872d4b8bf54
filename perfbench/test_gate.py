"""Self-test of the benchmark's correctness gate.

Run from the repository root:

    python3 -m pytest -q perfbench/test_gate.py

Clean outputs must pass and the traced replay must agree with the CLI; a
partition with one vertex moved between parts and a member labelled as a
non-member must each count as failed operations, so the failure rate the
benchmark reports rises above 0.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import glpart.cli as cli  # noqa: E402
import pytest  # noqa: E402

import bench  # noqa: E402
import gate  # noqa: E402
import inputs  # noqa: E402
from inputs import PLANTS, Recipe  # noqa: E402

MEMBER = Recipe(40, 3, False, 2)


def _build(tmp_path, recipes):
    batches, _ = inputs.timed_batches(cli.main, [recipes], 5, str(tmp_path))
    return batches


def _measure(tmp_path, batches, cli_main=cli.main, trace=False):
    return bench.measure(batches, cli_main, visits=1, seconds=0, seed=1,
                         skip_checks=False, out_path=str(tmp_path / "out.json"),
                         trace=trace)


def test_clean_outputs_pass_and_replay_agrees(tmp_path):
    recipes = [Recipe(40, 3, False), Recipe(40, 3, True), MEMBER]
    recipes += [dataclasses.replace(MEMBER, plant=p) for p in PLANTS]
    m = _measure(tmp_path, _build(tmp_path, recipes), trace=True)
    assert m.failures == []
    assert len(m.per_op) == len(recipes)


def test_moved_vertex_counts_as_failure(tmp_path):
    def corrupting_main(argv):
        rc = cli.main(argv)
        out = argv[argv.index("--out") + 1]
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        with open(argv[1], encoding="utf-8") as fh:
            terminals = inputs.parse_text(fh.read()).terminals
        donor = doc["parts"][0]
        moved = next(v for v in donor if v not in terminals)
        donor.remove(moved)
        doc["parts"][1].append(moved)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return rc

    m = _measure(tmp_path, _build(tmp_path, [Recipe(40, 3, False)]), corrupting_main)
    assert m.failure_rate > 0
    assert "verify_partition rejected it" in m.failures[0]


def test_mislabelled_nonmember_counts_as_failure(tmp_path):
    (member,) = _build(tmp_path, [MEMBER])[0]
    labelled = dataclasses.replace(
        member, recipe=dataclasses.replace(member.recipe, plant="house"))
    m = _measure(tmp_path, [[labelled]])
    assert m.failure_rate > 0
    assert "exit code 0, expected 2" in m.failures[0]


@pytest.mark.parametrize("fault, adj, witness", [
    # a 5-cycle with one chord is not a hole
    (gate.hole_fault, "0-1 1-2 2-3 3-4 4-0 0-2", [0, 1, 2, 3, 4]),
    # the fifth vertex sees two opposite cycle vertices: no house
    (gate.house_fault, "0-1 1-2 2-3 3-0 4-0 4-2", [0, 1, 2, 3, 4]),
    # two 4-cycles sharing one vertex only
    (gate.overlap_fault, "0-1 1-2 2-3 3-0 0-4 4-5 5-6 6-0", [0, 1, 2, 3, 4, 5, 6]),
])
def test_forged_witness_is_caught(fault, adj, witness):
    assert fault(_adjacency(7, adj), witness) is not None


def test_separator_that_does_not_separate_is_caught():
    adj = _adjacency(4, "0-1 1-2 2-3 3-0")
    assert gate.separator_fault(adj, 3, {"separator": [1], "separated_pair": [0, 2]})
    assert gate.separator_fault(adj, 3, {"separator": [1, 3], "separated_pair": [0, 2]}) is None


def _adjacency(n, text):
    adj = [set() for _ in range(n)]
    for pair in text.split():
        u, v = map(int, pair.split("-"))
        adj[u].add(v)
        adj[v].add(u)
    return adj
