"""End-to-end CLI behavior: exit codes, JSON shape, determinism."""

from __future__ import annotations

import json

import pytest

from glpart import (
    Graph,
    Instance,
    PartitionRequest,
    WeightedGraph,
    format_instance,
    generate_ktree,
)
import glpart.cli as cli
from glpart.cli import main


def write_instance(tmp_path, inst, name="inst.txt"):
    p = tmp_path / name
    p.write_text(format_instance(inst))
    return str(p)


@pytest.fixture
def chordal_file(tmp_path):
    g = generate_ktree(12, 3, 5)
    inst = Instance(
        WeightedGraph.unit(g), PartitionRequest((0, 4, 9), (4, 4, 4))
    )
    return write_instance(tmp_path, inst)


@pytest.fixture
def c4_file(tmp_path):
    inst = Instance(
        WeightedGraph.unit(Graph.cycle(4)), PartitionRequest((0, 1), (2, 2))
    )
    return write_instance(tmp_path, inst)


def run_json(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCheck:
    def test_chordal_instance(self, chordal_file, capsys):
        code, doc = run_json(["check", chordal_file], capsys)
        assert code == 0
        assert doc["chordal"] is True
        assert doc["class_member"] is True
        assert doc["connectivity_at_least_k"] is True
        assert doc["chordality_witness"] is None

    def test_c4_reports_witness(self, c4_file, capsys):
        code, doc = run_json(["check", c4_file], capsys)
        assert code == 0
        assert doc["chordal"] is False
        assert doc["class_member"] is True
        wit = doc["chordality_witness"]
        assert set(wit) == {"vertex", "nonadjacent"}

    def test_require_failure_exits_2(self, c4_file, capsys):
        code, doc = run_json(["check", c4_file, "--require", "chordal"], capsys)
        assert code == 2
        assert doc["chordal"] is False

    def test_require_pass_exits_0(self, c4_file, capsys):
        code, _ = run_json(
            ["check", c4_file, "--require", "class", "--require", "connectivity"],
            capsys,
        )
        assert code == 0

    def test_missing_file_exits_3(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "none.txt")]) == 3
        assert "error" in capsys.readouterr().err


class TestPartition:
    def test_chordal_exact(self, chordal_file, capsys):
        code, doc = run_json(["partition", chordal_file], capsys)
        assert code == 0
        assert doc["mode"] == "chordal-exact"
        assert doc["deviation"] == 0
        assert doc["audit"] is None
        assert sorted(v for p in doc["parts"] for v in p) == list(range(12))

    def test_almost_chordal_mode_carries_audit(self, tmp_path, capsys):
        from glpart import generate_almost_chordal

        g = generate_almost_chordal(20, 2, 2, seed=1)
        inst = Instance(
            WeightedGraph.unit(g), PartitionRequest((0, 5), (10, g.n - 10))
        )
        path = write_instance(tmp_path, inst)
        code, doc = run_json(["partition", path], capsys)
        assert code == 0
        assert doc["mode"] == "almost-chordal"
        assert doc["deviation"] <= 1
        audit = doc["audit"]
        assert len(audit["contracted_edges"]) == 2
        assert isinstance(audit["merge_map"], dict)

    def test_weighted_mode(self, tmp_path, capsys):
        g = generate_ktree(10, 2, 3)
        wg = WeightedGraph(g, tuple((v % 3) + 1 for v in range(10)))
        half = wg.total_weight() // 2
        inst = Instance(
            wg, PartitionRequest((0, 9), (half, wg.total_weight() - half))
        )
        path = write_instance(tmp_path, inst)
        code, doc = run_json(
            ["partition", path, "--debug-invariants"], capsys
        )
        assert code == 0
        assert doc["mode"] == "chordal-weighted"

    def test_precondition_failure_exits_2(self, tmp_path, capsys):
        # house graph is outside the class and not chordal
        house = Graph.from_edges(
            5, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (3, 4)]
        )
        inst = Instance(
            WeightedGraph.unit(house), PartitionRequest((0, 1), (2, 3))
        )
        path = write_instance(tmp_path, inst)
        assert main(["partition", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_skip_checks_stall_exits_1(self, tmp_path, capsys):
        # a tree is chordal but only 1-connected; with checks skipped the
        # weighted loop must stall rather than print a disconnected part
        tree = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 4)])
        inst = Instance(
            WeightedGraph(tree, (1, 1, 1, 1, 2)), PartitionRequest((3, 2, 0), (1, 4, 1))
        )
        path = write_instance(tmp_path, inst)
        code = main(["partition", path, "--mode", "chordal", "--skip-checks"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "no unassigned vertex neighbors an open part" in captured.err

    def test_unit_chordal_solve_gets_debug_invariants(
        self, chordal_file, capsys, monkeypatch
    ):
        calls = []
        solve = cli.gl_partition_chordal_weighted

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "gl_partition_chordal_weighted", spy)
        code, doc = run_json(["partition", chordal_file, "--debug-invariants"], capsys)
        assert code == 0
        assert doc["mode"] == "chordal-exact"
        assert [c.get("debug_invariants") for c in calls] == [True]

    def test_skip_checks_cyclic_incidence_exits_2(self, tmp_path, capsys):
        # K_{2,3}: its three 4-cycles share vertices in a cycle, so the
        # contraction greedy finds no cycle with three private vertices
        k23 = Graph.from_edges(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
        inst = Instance(WeightedGraph.unit(k23), PartitionRequest((0, 2), (2, 3)))
        path = write_instance(tmp_path, inst)
        assert main(["partition", path, "--skip-checks"]) == 2
        assert "three private vertices" in capsys.readouterr().err

    def test_timings_flag_adds_block(self, chordal_file, capsys):
        code, doc = run_json(["partition", chordal_file, "--timings"], capsys)
        assert code == 0
        assert set(doc["timing_ms"]) == {"load", "solve"}

    def test_out_writes_file(self, chordal_file, tmp_path, capsys):
        out = tmp_path / "res.json"
        assert main(["partition", chordal_file, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert doc["deviation"] == 0


class TestDeepAndLargeInputs:
    """Long cycles and paths end with an exit code, not a traceback."""

    @pytest.fixture(scope="class")
    def cycle_file(self, tmp_path_factory):
        inst = Instance(
            WeightedGraph.unit(Graph.cycle(3000)),
            PartitionRequest((0, 1500), (1500, 1500)),
        )
        return write_instance(tmp_path_factory.mktemp("deep"), inst)

    def test_check_long_cycle_reports_hole(self, cycle_file, capsys):
        code, doc = run_json(["check", cycle_file], capsys)
        assert code == 0
        assert doc["class_violation"]["kind"] == "hole"
        assert len(doc["class_violation"]["vertices"]) == 3000

    def test_partition_long_cycle_exits_2(self, cycle_file, capsys):
        assert main(["partition", cycle_file]) == 2
        assert "hole" in capsys.readouterr().err

    def test_partition_long_path_exits_2(self, tmp_path, capsys):
        inst = Instance(
            WeightedGraph.unit(Graph.path(1200)), PartitionRequest((0, 600), (600, 600))
        )
        assert main(["partition", write_instance(tmp_path, inst)]) == 2
        err = capsys.readouterr().err
        assert "not 2-connected" in err and "1 vertices separate" in err

    def test_validated_large_ktree_verifies(self, tmp_path, capsys):
        inst = tmp_path / "big.txt"
        parts = tmp_path / "parts.json"
        assert main(
            ["generate", "--n", "10000", "--k", "3", "--seed", "7", "--out", str(inst)]
        ) == 0
        assert main(["partition", str(inst), "--out", str(parts)]) == 0
        assert json.loads(parts.read_text())["mode"] == "chordal-exact"
        assert main(["verify", str(inst), str(parts)]) == 0


class TestVerify:
    def test_round_trip_verifies(self, chordal_file, tmp_path, capsys):
        out = tmp_path / "part.json"
        assert main(["partition", chordal_file, "--out", str(out)]) == 0
        code, doc = run_json(["verify", chordal_file, str(out)], capsys)
        assert code == 0
        assert doc["ok"] is True

    def test_tampered_partition_exits_1(self, chordal_file, tmp_path, capsys):
        out = tmp_path / "part.json"
        main(["partition", chordal_file, "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["parts"][0], doc["parts"][1] = (
            sorted(set(doc["parts"][0]) | {doc["parts"][1][0]}),
            doc["parts"][1][1:],
        )
        out.write_text(json.dumps(doc))
        code, rep = run_json(["verify", chordal_file, str(out)], capsys)
        assert code == 1
        assert rep["ok"] is False
        assert rep["first_violation"]

    def test_slack_rule_accepts_near_miss(self, chordal_file, tmp_path, capsys):
        out = tmp_path / "part.json"
        main(["partition", chordal_file, "--out", str(out)])
        doc = json.loads(out.read_text())
        mover = doc["parts"][0][-1]
        doc["parts"][0] = doc["parts"][0][:-1]
        doc["parts"][1] = sorted(doc["parts"][1] + [mover])
        out.write_text(json.dumps(doc))
        exact = main(["verify", chordal_file, str(out)])
        capsys.readouterr()
        if exact == 0:
            pytest.skip("moved vertex kept both parts exact; seed landed oddly")
        code, rep = run_json(
            ["verify", chordal_file, str(out), "--deviation", "slack:1"], capsys
        )
        # sizes are off by one each; connectivity may or may not survive
        assert code in (0, 1)
        assert all(abs(p["size"] - p["demand"]) <= 1 for p in rep["parts"])

    def test_garbage_partition_file_exits_3(self, chordal_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert main(["verify", chordal_file, str(bad)]) == 3

    def _solved(self, chordal_file, tmp_path):
        out = tmp_path / "part.json"
        assert main(["partition", chordal_file, "--out", str(out)]) == 0
        return out, json.loads(out.read_text())

    def test_boolean_vertex_exits_3(self, chordal_file, tmp_path, capsys):
        out, doc = self._solved(chordal_file, tmp_path)
        part = next(p for p in doc["parts"] if 1 in p)
        part[part.index(1)] = True
        out.write_text(json.dumps(doc))
        assert main(["verify", chordal_file, str(out)]) == 3
        assert "must contain integers" in capsys.readouterr().err

    def test_boolean_deviation_exits_3(self, chordal_file, tmp_path, capsys):
        out, doc = self._solved(chordal_file, tmp_path)
        doc["deviation"] = False
        out.write_text(json.dumps(doc))
        assert main(["verify", chordal_file, str(out)]) == 3
        assert "deviation must be an integer" in capsys.readouterr().err

    def test_repeated_vertex_exits_3(self, chordal_file, tmp_path, capsys):
        out, doc = self._solved(chordal_file, tmp_path)
        doc["parts"][0].append(doc["parts"][0][0])
        out.write_text(json.dumps(doc))
        assert main(["verify", chordal_file, str(out)]) == 3
        assert "lists a vertex twice" in capsys.readouterr().err

    def test_bad_rule_exits_3(self, chordal_file, tmp_path, capsys):
        out = tmp_path / "part.json"
        main(["partition", chordal_file, "--out", str(out)])
        assert main(
            ["verify", chordal_file, str(out), "--deviation", "fuzzy:9"]
        ) == 3


class TestGenerate:
    def test_ktree_instance_parses_and_solves(self, tmp_path, capsys):
        out = tmp_path / "gen.txt"
        assert main(
            ["generate", "--n", "14", "--k", "3", "--seed", "5", "--out", str(out)]
        ) == 0
        code, doc = run_json(["partition", str(out)], capsys)
        assert code == 0 and doc["deviation"] == 0

    def test_cycles_instance(self, tmp_path, capsys):
        out = tmp_path / "gen.txt"
        assert main(
            [
                "generate", "--n", "20", "--k", "2", "--cycles", "2",
                "--seed", "5", "--min-demand", "2", "--out", str(out),
            ]
        ) == 0
        code, doc = run_json(["check", str(out)], capsys)
        assert code == 0
        assert doc["chordal"] is False and doc["class_member"] is True

    def test_weighted_generation(self, tmp_path, capsys):
        out = tmp_path / "gen.txt"
        assert main(
            [
                "generate", "--n", "12", "--k", "2", "--max-weight", "6",
                "--seed", "3", "--out", str(out),
            ]
        ) == 0
        code, doc = run_json(
            ["partition", str(out), "--debug-invariants"], capsys
        )
        assert code == 0
        assert doc["mode"] == "chordal-weighted"

    def test_undersized_cycles_exits_2(self, tmp_path, capsys):
        assert main(
            ["generate", "--n", "8", "--k", "3", "--cycles", "2"]
        ) == 2


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["generate", "--n", "10", "--k", "2", "--cycles", "-1"], "--cycles"),
        (["generate", "--n", "10", "--k", "2", "--max-weight", "0"], "--max-weight"),
        (["generate", "--n", "10", "--k", "2", "--max-weight", "-3"], "--max-weight"),
        (["oracle-compare", "--cycles", "-1"], "--cycles"),
        (["oracle-compare", "--k", "2", "--n-max", "3"], "--n-max"),
        (["generate", "--n", "20", "--k", "1", "--cycles", "1"], "--k"),
        (["generate", "--n", "20", "--k", "0"], "--k"),
        (["generate", "--n", "3", "--k", "3"], "--n"),
        (["oracle-compare", "--k", "0"], "--k"),
        (["oracle-compare", "--k", "1", "--cycles", "1", "--n-max", "12"], "--k"),
        (["oracle-compare", "--trials", "-2"], "--trials"),
        (["generate", "--n", "20", "--k", "1"], "--k"),
    ],
)
def test_out_of_range_flag_exits_2(argv, flag, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and flag in err
    assert "Traceback" not in err


class TestOracleCompare:
    def test_chordal_trials_agree(self, capsys):
        code, doc = run_json(
            ["oracle-compare", "--trials", "6", "--seed", "1", "--n-max", "9"],
            capsys,
        )
        assert code == 0
        assert doc["failures"] == 0
        assert len(doc["results"]) == 6

    def test_cycles_trials_agree(self, capsys):
        code, doc = run_json(
            [
                "oracle-compare", "--trials", "4", "--seed", "2",
                "--cycles", "1", "--n-max", "12",
            ],
            capsys,
        )
        assert code == 0
        assert doc["failures"] == 0


class TestDeterminism:
    def test_partition_byte_identical(self, chordal_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["partition", chordal_file, "--out", str(a)]) == 0
        assert main(["partition", chordal_file, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generate_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["generate", "--n", "16", "--k", "3", "--cycles", "2", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_check_byte_identical(self, c4_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["check", c4_file, "--out", str(a)]) == 0
        assert main(["check", c4_file, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
