"""The opcode and C-call meter of ``tools/work_meter.py``, on a small fixed
function and on the CLI cases at n = 120."""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import work_meter  # noqa: E402

# opcodes of ``lambda: triangle(10)`` per interpreter; the tracer reports
# bytecode, which each minor version compiles differently
TRIANGLE_OPCODES = {(3, 10): 83, (3, 11): 85, (3, 12): 83, (3, 13): 73}


def triangle(n):
    total = 0
    for i in range(n):
        total += i
    return total


def test_small_function_count_is_pinned():
    version = sys.version_info[:2]
    if version not in TRIANGLE_OPCODES:
        pytest.skip(f"no count pinned for Python {version}")
    work_meter.meter(lambda: triangle(10))  # warm, as the tool does
    opcodes, c_calls = work_meter.meter(lambda: triangle(10))
    assert dict(opcodes) == {__name__: TRIANGLE_OPCODES[version]}
    # range is a type, not a C function, so the loop makes no C call
    assert dict(c_calls) == {}
    _, c_calls = work_meter.meter(lambda: sorted(range(triangle(3))))
    assert dict(c_calls) == {__name__: 1}


def test_bucket_folds_other_modules_and_sums():
    counts = {"glpart.chordal": 5, "glpart.cli": 2, "json.encoder": 3, None: 1}
    assert work_meter.bucket(counts, ["chordal", "cli", "graph"]) == {
        "chordal": 5, "cli": 2, "graph": 0, "(other)": 4, "total": 11}


@pytest.fixture(scope="module")
def trees():
    # the same tree twice, each in its own child process
    src = os.path.join(ROOT, "src")
    return work_meter.measure([src, src], sizes=(120,))


def test_two_runs_give_the_same_counts(trees):
    first, second = trees
    assert first["cases"] == second["cases"]
    assert first["python"] == sys.version.split()[0]
    # with nothing to report, the comparison names no module
    report = work_meter.format_report(trees).splitlines()
    assert len(report) == 1 + len(work_meter.cases((120,)))
    assert all("(+0.000%)" in line for line in report[1:])


def test_json_has_one_row_per_case_and_module(trees):
    rows = json.loads(json.dumps(work_meter.rows(trees[:1])))
    names = [name for name, _ in work_meter.cases((120,))]
    modules = sorted(p[:-3] for p in os.listdir(os.path.join(ROOT, "src", "glpart"))
                     if p.endswith(".py") and p != "__init__.py")
    modules += ["(other)", "total"]
    keys = [(row["case"], row["module"]) for row in rows]
    assert sorted(keys) == sorted((case, m) for case in names for m in modules)
    by_key = {(row["case"], row["module"]): row for row in rows}
    for case in names:
        parts = [by_key[case, m]["opcodes"] for m in modules[:-1]]
        assert sum(parts) == by_key[case, "total"]["opcodes"] > 0
    # the planted hole is found, and a validated partition runs the flow
    assert by_key["check hole-120", "recognition"]["opcodes"] > 0
    assert by_key["partition ktree-120", "connectivity"]["opcodes"] > 0
    assert by_key["partition ktree-120 --skip-checks", "connectivity"]["opcodes"] == 0


def test_planted_hole_stays_k_connected_and_leaves_the_class(tmp_path):
    from glpart import class_violation, load_instance, vertex_connectivity_at_least
    from glpart.generators import instance_text

    path = tmp_path / "hole.txt"
    path.write_text(work_meter.plant_hole(instance_text(30, 3, 0, 1, 1, 1)))
    inst = load_instance(str(path))
    assert inst.graph.n == 35 and sum(inst.request.demands) == 35
    assert class_violation(inst.graph).kind == "hole"
    assert vertex_connectivity_at_least(inst.graph, 3)
