"""Metamorphic relations: a second run of the CLI on an edited instance
file, with no reference solver, at sizes the brute force cannot reach.

- Shuffling the edge lines, swapping the ends of some, and adding
  comments and blank lines leaves the stdout of ``check`` and of
  ``partition`` (with and without checks) byte-identical.
- Relabelling the vertices keeps every exit code and the chordal, class
  and connectivity verdicts of ``check``, and the partition verifies
  under the paper's rule for its mode.
- Scaling every weight and every demand by c keeps the exit code and the
  parts of ``partition`` and scales its deviation by exactly c; the mode
  stays, except that a unit instance turns weighted.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from glpart import (
    GLPartition,
    Graph,
    Instance,
    PartitionRequest,
    WeightedGraph,
)
from glpart.cli import main
from glpart.generators import instance_text
from glpart.instances import parse_instance
from glpart.verify import DeviationRule, verify_partition

from bruteforce import edges, format_instance, random_gnp

COMMANDS = (["check"], ["partition"], ["partition", "--skip-checks"])


def _run(tmp_path, name, text, argv, capsys):
    path = tmp_path / name
    path.write_text(text)
    code = main([*argv, str(path)])
    return code, capsys.readouterr().out


def _edited(text: str, rng: random.Random) -> str:
    """``text``, which has no comment line after its header, with its edge
    lines shuffled, a third of them swapped end for end, and comment and
    blank lines strewn among them."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    head, edges = lines[:4], lines[4:]
    rng.shuffle(edges)
    out = [" ".join(line.split()[::-1]) if rng.random() < 1 / 3 else line
           for line in edges]
    for _ in range(len(out) // 50 + 2):
        out.insert(rng.randrange(len(out) + 1),
                   rng.choice(["", "# note", "   ", "\t# 0 1"]))
    return "\n".join(["# edited", *head, *out]) + "\n"


def _relabelled(inst: Instance, rng: random.Random) -> Instance:
    g, n = inst.graph, inst.graph.n
    new_id = list(range(n))
    rng.shuffle(new_id)
    weights = [0] * n
    for v, w in enumerate(inst.wgraph.weights):
        weights[new_id[v]] = w
    h = Graph.from_edges(n, [(new_id[u], new_id[v]) for u, v in edges(g)])
    req = PartitionRequest(tuple(map(new_id.__getitem__, inst.request.terminals)),
                           inst.request.demands)
    return Instance(WeightedGraph(h, tuple(weights)), req)


def _paper_rule(mode: str, wg: WeightedGraph) -> DeviationRule:
    """The deviation the paper promises for the mode ``partition`` printed:
    exact or within w_max on chordal inputs, within one vertex or 2 w_max
    on the extension class."""
    if mode == "chordal-exact":
        return DeviationRule.exact()
    if mode == "chordal-weighted":
        return DeviationRule.window(wg.w_max)
    return DeviationRule.slack(1) if wg.is_unit() else DeviationRule.window(2 * wg.w_max)


def _gnp_texts():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(8, 30)
        g = random_gnp(rng, n, 0.3)
        req = PartitionRequest((0, 1), (1, n - 1))
        yield format_instance(Instance(WeightedGraph.unit(g), req))


# ``check`` on every graph of ``_gnp_texts``, as written
GNP_CHECK_SHA256 = "d3332320d36a57ec30cdd0ce1c5d4070da5710052a8dc146ae63b85ae2832bfd"


def test_check_of_gnp_reads_no_line_order(tmp_path, capsys):
    # among these, graph 2 once printed a different chordality witness
    # when its edge lines came in another order
    chordal = set()
    digest = hashlib.sha256()
    for i, text in enumerate(_gnp_texts()):
        lines = text.splitlines()
        edges = lines[4:]
        random.Random(i).shuffle(edges)
        swapped = [" ".join(line.split()[::-1]) for line in edges]
        outs = {_run(tmp_path, "g.txt", "\n".join([*lines[:4], *e]) + "\n",
                     ["check"], capsys)
                for e in (lines[4:], edges, swapped)}
        assert len(outs) == 1, i
        ((code, out),) = outs
        digest.update(f"{code}\n{out}".encode())
        chordal.add(json.loads(out)["chordal"])
    assert chordal == {True, False}
    assert digest.hexdigest() == GNP_CHECK_SHA256


def test_check_of_gnp_reads_no_set_order(scrambled_sets, tmp_path, capsys):
    digest = hashlib.sha256()
    for text in _gnp_texts():
        code, out = _run(tmp_path, "g.txt", text, ["check"], capsys)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == GNP_CHECK_SHA256


# (name, n, k, cycles, seed, max weight, min demand): unit and weighted
# k-trees and class members, n = 1,000 to 4,000
SCALE = [
    ("ktree", 1000, 3, 0, 1, 1, 1),
    ("ktree-weighted", 2000, 4, 0, 2, 9, 1),
    ("member", 2000, 3, 40, 3, 1, 2),
    ("member-weighted", 4000, 2, 80, 4, 9, 10),
    ("ktree-k5", 4000, 5, 0, 5, 1, 10),
    ("member-k4-weighted", 1000, 4, 20, 6, 1000, 1),
]


@pytest.mark.parametrize("name,n,k,cycles,seed,top,floor", SCALE,
                         ids=[c[0] for c in SCALE])
def test_edited_lines_keep_stdout(tmp_path, capsys, name, n, k, cycles, seed,
                                  top, floor):
    text = instance_text(n, k, cycles, seed, top, floor)
    edited = _edited(text, random.Random(seed))
    assert parse_instance(edited).graph == parse_instance(text).graph
    for argv in COMMANDS:
        want = _run(tmp_path, "as-written.txt", text, argv, capsys)
        assert want[0] == 0, argv
        assert _run(tmp_path, "edited.txt", edited, argv, capsys) == want, argv


@pytest.mark.parametrize("name,n,k,cycles,seed,top,floor", SCALE,
                         ids=[c[0] for c in SCALE])
def test_relabelled_vertices_keep_verdicts(tmp_path, capsys, name, n, k,
                                           cycles, seed, top, floor):
    inst = parse_instance(instance_text(n, k, cycles, seed, top, floor))
    moved = _relabelled(inst, random.Random(seed))
    verdicts, modes = [], set()
    for label, case in (("as-written", inst), ("relabelled", moved)):
        text = format_instance(case)
        code, out = _run(tmp_path, f"{label}.txt", text, ["check"], capsys)
        doc = json.loads(out)
        verdicts.append((code, doc["chordal"], doc["class_member"],
                         doc["connectivity_at_least_k"]))
        code, out = _run(tmp_path, f"{label}.txt", text, ["partition"], capsys)
        assert code == 0, label
        doc = json.loads(out)
        modes.add(doc["mode"])
        parts = tuple(map(frozenset, doc["parts"]))
        report = verify_partition(case.wgraph, case.request,
                                  GLPartition(parts, doc["deviation"]),
                                  _paper_rule(doc["mode"], case.wgraph))
        assert report.ok, (label, report)
    assert verdicts[0] == verdicts[1]
    assert verdicts[0] == (0, cycles == 0, True, True)
    assert len(modes) == 1 and modes <= {"chordal-exact", "chordal-weighted",
                                         "almost-chordal"}
    assert modes.pop().startswith("chordal") == (cycles == 0)



@pytest.mark.parametrize("name,n,k,cycles,seed,top,floor", SCALE,
                         ids=[c[0] for c in SCALE])
def test_scaled_weights_scale_the_deviation(tmp_path, capsys, name, n, k,
                                            cycles, seed, top, floor):
    inst = parse_instance(instance_text(n, k, cycles, seed, top, floor))
    code, out = _run(tmp_path, "as-written.txt", format_instance(inst),
                     ["partition"], capsys)
    assert code == 0
    want = json.loads(out)
    mode = "chordal-weighted" if want["mode"] == "chordal-exact" else want["mode"]
    for c in (2, 7):
        scaled = Instance(
            WeightedGraph(inst.graph, tuple(c * w for w in inst.wgraph.weights)),
            PartitionRequest(inst.request.terminals,
                             tuple(c * d for d in inst.request.demands)))
        code, out = _run(tmp_path, f"times-{c}.txt", format_instance(scaled),
                         ["partition"], capsys)
        got = json.loads(out)
        assert (code, got["parts"], got["mode"]) == (0, want["parts"], mode), c
        assert got["deviation"] == c * want["deviation"], c
