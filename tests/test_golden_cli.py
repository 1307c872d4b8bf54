"""Golden CLI corpus: stdout and exit codes pinned by SHA-256 digests.

A small seeded corpus is generated with ``glpart generate`` and run through
``partition`` (auto mode, with and without checks) and ``check``, plus a
non-chordal graph forced into chordal mode and an input on which the growth
loop stalls. Any change to what the CLI prints or returns on these inputs
changes the digest; an intended change must update it and say why. A
second digest pins ``verify`` under three deviation rules, on good and on
swapped partitions, and ``check`` on inputs it rejects. One more,
STDERR_SHA256, hashes stderr with stdout, so the error line of a rejected
run, such as a chordality witness, is pinned as well.
"""

from __future__ import annotations

import hashlib
import json
import random

from glpart import (
    Graph,
    Instance,
    PartitionRequest,
    WeightedGraph,
    generate_almost_chordal,
    generate_ktree,
)
from glpart.cli import main
from glpart.generators import draw_request

from bruteforce import (
    cycle_graph,
    format_instance,
    planted,
    random_gnp,
    shared_vertex_member,
)

GOLDEN_SHA256 = "3905a7ca60caff4a2aa59c1de5ecd0c8debc8eb7f86f3fd9154914c83d9b2b45"

# (name, generate flags); every instance keeps n <= 60
CORPUS = [
    ("ktree", ["--n", "60", "--k", "3", "--seed", "11"]),
    ("ktree-weighted", ["--n", "50", "--k", "4", "--max-weight", "6", "--seed", "12"]),
    ("member", ["--n", "60", "--k", "2", "--cycles", "4", "--seed", "13",
                "--min-demand", "2"]),
    ("member-weighted", ["--n", "48", "--k", "3", "--cycles", "3", "--max-weight", "5",
                         "--seed", "14", "--min-demand", "6"]),
]

# a tree is chordal but only 1-connected: with checks skipped the loop stalls
STALL = "5 4 3\n1 1 1 1 1\n3 2 0\n1 3 1\n0 2\n0 3\n0 4\n1 4\n"


def _run(argv, capsys, digest) -> int:
    code = main(argv)
    out = capsys.readouterr().out
    digest.update(f"{code}\n{out}".encode())
    return code


def test_cli_corpus_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    codes = []
    for name, flags in CORPUS:
        assert _run(["generate", *flags], capsys, digest) == 0
        path = tmp_path / f"{name}.txt"
        assert main(["generate", *flags, "--out", str(path)]) == 0
        for cmd in (["partition"], ["partition", "--skip-checks"], ["check"]):
            codes.append(_run([*cmd, str(path)], capsys, digest))

    member = str(tmp_path / "member.txt")
    codes.append(_run(["partition", member, "--mode", "chordal"], capsys, digest))
    stall = tmp_path / "stall.txt"
    stall.write_text(STALL)
    codes.append(_run(["partition", str(stall), "--mode", "chordal", "--skip-checks"],
                      capsys, digest))

    assert codes == [0] * 12 + [2, 1]
    assert digest.hexdigest() == GOLDEN_SHA256


# ``--mode almost-chordal`` forced onto the corpus k-trees, unit and weighted,
# with and without checks: the auto mode would solve these directly, so this
# pins the pipeline's mode string, its (empty) audit and its parts on them
FORCED_MODE_SHA256 = "fc5dfdc86e2fe66450b4da19fde7d3aa13fd3eeed44eda77669e4c95c75966d1"


def test_forced_almost_chordal_mode_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    codes = []
    for name, flags in CORPUS[:2]:
        path = tmp_path / f"{name}.txt"
        assert main(["generate", *flags, "--out", str(path)]) == 0
        for extra in ([], ["--skip-checks"]):
            codes.append(_run(["partition", str(path), "--mode", "almost-chordal",
                               *extra], capsys, digest))
    assert codes == [0] * 4
    assert digest.hexdigest() == FORCED_MODE_SHA256


# verify and check payloads are assembled from the result types; these
# inputs pin every field of them, rejections included
VERIFY_CHECK_SHA256 = "84b7963033f3a72331631795aa9ecddb197641c96ab4ac1db04bb57dd3ebbea3"

RULES = ("exact", "slack:1", "window:3")


def _instance_text(n: int, edges, terminals, demands) -> str:
    g = Graph.from_edges(n, edges)
    return format_instance(
        Instance(WeightedGraph.unit(g), PartitionRequest(terminals, demands))
    )


# a 7-hole, a house, a path and three triangles sharing vertex 0 (both
# chordal with a cut vertex), and two 4-cycles sharing vertex 3 (not
# chordal, cut vertex 3), all asked for k=2
CHECKS = {
    "hole": _instance_text(7, [(i, (i + 1) % 7) for i in range(7)], (0, 3), (3, 4)),
    "house": _instance_text(
        5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)], (0, 2), (2, 3)
    ),
    "path": _instance_text(5, [(0, 1), (1, 2), (2, 3), (3, 4)], (0, 4), (2, 3)),
    "windmill": _instance_text(
        7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (0, 5), (5, 6), (6, 0)],
        (1, 5), (3, 4),
    ),
    "bowtie": _instance_text(
        7, [(0, 1), (1, 3), (3, 2), (2, 0), (3, 4), (4, 6), (6, 5), (5, 3)],
        (0, 6), (3, 4),
    ),
}


def test_verify_and_check_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    codes = []
    for name, flags in CORPUS[:3]:
        inst = tmp_path / f"{name}.txt"
        assert main(["generate", *flags, "--out", str(inst)]) == 0
        good = tmp_path / f"{name}.json"
        assert main(["partition", str(inst), "--out", str(good)]) == 0
        doc = json.loads(good.read_text())
        doc["parts"][0], doc["parts"][1] = doc["parts"][1], doc["parts"][0]
        swapped = tmp_path / f"{name}-swapped.json"
        swapped.write_text(json.dumps(doc))
        for part in (good, swapped):
            for rule in RULES:
                codes.append(_run(
                    ["verify", str(inst), str(part), "--deviation", rule],
                    capsys, digest,
                ))
    for name, text in CHECKS.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        codes.append(_run(["check", str(path)], capsys, digest))

    # the weighted k-tree misses exact, slack:1 and window:3 even unswapped
    assert codes == [0] * 3 + [1] * 9 + [0] * 3 + [1] * 3 + [0] * 5
    assert digest.hexdigest() == VERIFY_CHECK_SHA256


# ``check`` on k=3 class members, clean and with each planted defect: the
# hole search, the house and overlap scans and the connectivity check all
# run on graphs that the clique separator decomposition cuts into many atoms
MEMBER_CHECK_SHA256 = "f5475f42bcbe6ead1c02b223ff94c12303a84c386d28b4ee0b74e892bc451a9b"

PLANTS = ("hole", "house", "c4-overlap", "separator")


def test_member_check_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    codes = []
    for n, cycles, seed in ((40, 4, 21), (72, 8, 22)):
        member = generate_almost_chordal(n, 3, cycles, seed=seed)
        for kind in (None, *PLANTS):
            g = member if kind is None else planted(member, 3, kind)
            req = PartitionRequest((0, 1, 2), (1, 1, g.n - 2))
            path = tmp_path / f"{n}-{kind}.txt"
            path.write_text(format_instance(Instance(WeightedGraph.unit(g), req)))
            codes.append(_run(["check", str(path)], capsys, digest))
    assert codes == [0] * 10
    assert digest.hexdigest() == MEMBER_CHECK_SHA256


# ``partition`` at the sizes the benchmark solves: k-trees of 1,000 to 4,000
# vertices, unit and weighted, k = 2..5, and one weighted class member, each
# with and without checks. GOLDEN_SHA256 stops at n = 60, where a growth loop
# rarely has more than a few frontier vertices to choose from.
LARGE_SHA256 = "5e27a1ea393d8faf0c208dc406437a35ffc83365a7c4a27bd4014ec8cc0e5a17"

LARGE_CORPUS = [
    ["--n", "1000", "--k", "2", "--seed", "31"],
    ["--n", "1500", "--k", "3", "--max-weight", "9", "--seed", "32"],
    ["--n", "2000", "--k", "4", "--seed", "33"],
    ["--n", "2500", "--k", "5", "--max-weight", "9", "--seed", "34"],
    ["--n", "3000", "--k", "3", "--seed", "35"],
    ["--n", "4000", "--k", "2", "--max-weight", "9", "--seed", "36"],
    ["--n", "400", "--k", "3", "--cycles", "8", "--max-weight", "9",
     "--min-demand", "10", "--seed", "37"],
]


def test_large_partition_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    codes = []
    for i, flags in enumerate(LARGE_CORPUS):
        path = str(tmp_path / f"large-{i}.txt")
        assert main(["generate", *flags, "--out", path]) == 0
        for cmd in (["partition"], ["partition", "--skip-checks"]):
            codes.append(_run([*cmd, path], capsys, digest))
    assert codes == [0] * 14
    assert digest.hexdigest() == LARGE_SHA256


# ``oracle-compare`` on k-trees and on class members, k = 2 and 3: each
# trial's seed, drawn n and verdicts
ORACLE_SHA256 = "2e4fa23069672713a8c8d05eabc69a1f9c4c31888f79b682933ede481551527a"


def test_oracle_compare_digest(capsys):
    digest = hashlib.sha256()
    codes = []
    for k in (2, 3):
        for cycles in ("0", "1"):
            codes.append(_run(
                ["oracle-compare", "--trials", "5", "--seed", str(40 + k),
                 "--k", str(k), "--cycles", cycles, "--n-max", "11"],
                capsys, digest))
    assert codes == [0] * 4
    assert digest.hexdigest() == ORACLE_SHA256


# ``generate`` itself at the sizes the benchmark builds: k-trees of 1,000
# and 4,000 vertices for k = 2..5, unit weights and ``--max-weight`` 9 and
# 1,000, floors 1 and 10, and class members with 8 and 40 rings, unit and
# weighted. Every byte of each instance file, the request included.
GENERATE_SHA256 = "18fb12a425dc699d5ae208962bd15d0679fe410282edfc11d7d4e2d418ffe8bb"

GENERATE_CORPUS = [
    ["--n", "1000", "--k", "2", "--seed", "51"],
    ["--n", "1000", "--k", "3", "--max-weight", "9", "--min-demand", "10",
     "--seed", "52"],
    ["--n", "1000", "--k", "4", "--max-weight", "1000", "--seed", "53"],
    ["--n", "1000", "--k", "5", "--min-demand", "10", "--seed", "54"],
    ["--n", "4000", "--k", "2", "--max-weight", "9", "--seed", "55"],
    ["--n", "4000", "--k", "3", "--min-demand", "10", "--seed", "56"],
    ["--n", "4000", "--k", "4", "--max-weight", "9", "--min-demand", "10",
     "--seed", "57"],
    ["--n", "4000", "--k", "5", "--max-weight", "1000", "--min-demand", "10",
     "--seed", "58"],
    ["--n", "400", "--k", "3", "--cycles", "8", "--seed", "59"],
    ["--n", "400", "--k", "2", "--cycles", "8", "--max-weight", "9",
     "--min-demand", "10", "--seed", "60"],
    ["--n", "1000", "--k", "4", "--cycles", "40", "--seed", "61"],
    ["--n", "1000", "--k", "3", "--cycles", "40", "--max-weight", "1000",
     "--min-demand", "10", "--seed", "62"],
]


def test_generate_digest(capsys):
    digest = hashlib.sha256()
    codes = [_run(["generate", *flags], capsys, digest) for flags in GENERATE_CORPUS]
    assert codes == [0] * len(GENERATE_CORPUS)
    assert digest.hexdigest() == GENERATE_SHA256


# ``generate`` on class members whose gadgets crowd the k-tree base: k =
# 2..5, unit and weighted, up to (n - k - 1) // 4 rings at n = 200 and
# 1,000, so a few anchor cliques carry many rings each. Every byte of each
# instance file, the edge lines' order included.
GENERATE_MEMBER_SHA256 = "b4589f4219a10b69904c08754902abec8a41a65793302f29f257d5ababc7349d"

GENERATE_MEMBER_CORPUS = [
    ["--n", "200", "--k", "2", "--cycles", "49", "--seed", "71"],
    ["--n", "200", "--k", "3", "--cycles", "49", "--max-weight", "9",
     "--min-demand", "10", "--seed", "72"],
    ["--n", "200", "--k", "4", "--cycles", "48", "--max-weight", "1000", "--seed", "73"],
    ["--n", "200", "--k", "5", "--cycles", "48", "--min-demand", "10", "--seed", "74"],
    ["--n", "1000", "--k", "2", "--cycles", "249", "--max-weight", "9", "--seed", "75"],
    ["--n", "1000", "--k", "3", "--cycles", "249", "--seed", "76"],
    ["--n", "1000", "--k", "4", "--cycles", "248", "--max-weight", "1000",
     "--min-demand", "10", "--seed", "77"],
    ["--n", "1000", "--k", "5", "--cycles", "248", "--max-weight", "9", "--seed", "78"],
]


def test_generate_member_digest(capsys):
    digest = hashlib.sha256()
    codes = [_run(["generate", *flags], capsys, digest) for flags in GENERATE_MEMBER_CORPUS]
    assert codes == [0] * len(GENERATE_MEMBER_CORPUS)
    assert digest.hexdigest() == GENERATE_MEMBER_SHA256


# ``generators.draw_request``, which ``generate`` and ``oracle-compare`` share:
# the terminals, the demands and the next draw after them, over seeds 0-2,
# k = 2..8, unit weights and weights up to 9 and up to 2,000, floors 1 and
# 10. ``oracle-compare`` prints neither terminals nor demands, so
# ORACLE_SHA256 cannot see this draw.
REQUEST_SHA256 = "d13f561fbfbd382c5cb4d573264575823990d60bbb2bda5e99ff9ac4a5d6d00b"


def test_request_draw_digest():
    digest = hashlib.sha256()
    for seed in range(3):
        n = 90 + 7 * seed
        g = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        wrng = random.Random(seed)
        for top in (1, 9, 2000):
            wg = WeightedGraph(g, tuple(wrng.randint(1, top) for _ in range(n)))
            for k in range(2, 9):
                for floor in (1, 10):
                    rng = random.Random(1000 * seed + 10 * k + floor)
                    req = draw_request(rng, wg.weights, k, floor)
                    tail = rng.getrandbits(32)
                    digest.update(f"{req.terminals} {req.demands} {tail}\n".encode())
    assert digest.hexdigest() == REQUEST_SHA256


# Every ``check`` and ``partition`` variant on members (k = 2..4, clean,
# with each planted defect and with shared ring vertices), k-trees, random
# graphs and two long holes, each with unit weights and with weights up to
# 5. Unlike the digests above it also hashes stderr, so the witness a
# rejected run prints is pinned too.
STDERR_SHA256 = "acc836a842bab6d4df398e03f764a512e2e5594784e0c4c8c537b537d1952ff0"

COMMANDS = (
    ["check"],
    ["check", "--require", "chordal", "--require", "class",
     "--require", "connectivity"],
    *(["partition", "--mode", mode, *extra]
      for mode in ("auto", "chordal", "almost-chordal")
      for extra in ([], ["--skip-checks"])),
)


def _stderr_corpus():
    """(graph, k, demand floor) for each input of STDERR_SHA256."""
    rng = random.Random(90)
    for k in (2, 3, 4):
        member = generate_almost_chordal(12 * k + 16, k, 3, seed=90 + k)
        yield member, k, 2
        for kind in PLANTS:
            yield planted(member, k, kind), k, 2
        yield shared_vertex_member(12 * k + 16, k, 3, 2, 93 + k), k, 2
        yield generate_ktree(20 * k, k, 96 + k), k, 1
    for n, p in ((20, 0.3), (40, 0.15), (60, 0.1)):
        yield random_gnp(rng, n, p), 2, 1
    yield cycle_graph(30), 2, 1
    yield cycle_graph(3000), 3, 1


def _run_with_stderr(argv, capsys, digest) -> int:
    code = main(argv)
    out, err = capsys.readouterr()
    digest.update(f"{code}\n{out}\n{err}".encode())
    return code


def test_stderr_corpus_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    codes = []
    for i, (g, k, floor) in enumerate(_stderr_corpus()):
        wrng = random.Random(i)
        for top in (1, 5):
            wg = WeightedGraph(g, tuple(wrng.randint(1, top) for _ in range(g.n)))
            req = draw_request(wrng, wg.weights, k, floor)
            path = tmp_path / f"{i}-{top}.txt"
            path.write_text(format_instance(Instance(wg, req)))
            for cmd in COMMANDS:
                codes.append(_run_with_stderr([*cmd, str(path)], capsys, digest))
    assert len(codes) == 416
    assert [codes.count(c) for c in (0, 1, 2)] == [206, 26, 184]
    assert digest.hexdigest() == STDERR_SHA256


def test_digests_read_no_set_order(scrambled_sets, tmp_path, capsys):
    # every digest above that runs a graph through the library, with each
    # neighbour set rebuilt in another insertion order: no output may read
    # the order in which a set was built
    test_cli_corpus_digest(tmp_path, capsys)
    test_forced_almost_chordal_mode_digest(tmp_path, capsys)
    test_verify_and_check_digest(tmp_path, capsys)
    test_member_check_digest(tmp_path, capsys)
    test_large_partition_digest(tmp_path, capsys)
    test_oracle_compare_digest(capsys)
    test_stderr_corpus_digest(tmp_path, capsys)
