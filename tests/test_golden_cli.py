"""Golden CLI corpus: stdout and exit codes pinned by SHA-256 digests.

A small seeded corpus is generated with ``glpart generate`` and run through
``partition`` (auto mode, with and without checks) and ``check``, plus a
non-chordal graph forced into chordal mode and an input on which the growth
loop stalls. Any change to what the CLI prints or returns on these inputs
changes the digest; an intended change must update it and say why. A
second digest pins ``verify`` under three deviation rules, on good and on
swapped partitions, and ``check`` on inputs it rejects.
"""

from __future__ import annotations

import hashlib
import json

from glpart import (
    Graph,
    Instance,
    PartitionRequest,
    WeightedGraph,
    format_instance,
    generate_almost_chordal,
)
from glpart.cli import main

from bruteforce import planted

GOLDEN_SHA256 = "6d0bdd779ba7888bdf5d8da857d132f8a42c2876136f69f6753bfdd119ebf7f3"

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


# verify and check payloads are assembled from the result types; these
# inputs pin every field of them, rejections included
VERIFY_CHECK_SHA256 = "efba67c8b2594f8b25181cf234b5c87e07d6eeb5bbd4f1a929984e7ab22a97c9"

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
LARGE_SHA256 = "108cd8bae1b6fbe3c54cf9398903877fcb135cabad31eca499e354885c50374f"

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
