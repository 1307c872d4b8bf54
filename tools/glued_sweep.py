#!/usr/bin/env python3
"""Small-scope checks past the atlas, on graphs glued from atoms.

    python3 tools/glued_sweep.py [--draws N] [--seed S] [--requests R]

networkx's atlas stops at 7 vertices. Each draw here builds a graph of 8
to 12 vertices with ``glued_graph`` (``tests/bruteforce.py``), for k from 2
to 4: clique and ring + Q atoms glued along cliques of at least k
vertices, so the graph is k-connected. Brute force sorts each graph into
chordal member, non-chordal member and non-member; a glue that holds no
ring edge must give a member.

On each member:
- lemma (a): every non-complete atom of the clique separator
  decomposition is ring + Q, by the library's mark and by brute force;
- for each k' from 2 to k, R requests with random terminals and demands
  run through validated ``solve`` and are verified under the paper's rule
  (exact on chordal graphs, within one vertex on members); every answer
  with deviation 1 must have an exact partition that ``bf_gl_partition``
  finds;
- lemma (c') holds on each request's terminals.

On each non-member, ``glpart check --require class`` exits 2 and prints
the witness that ``class_violation`` returns; validated ``solve`` refuses
with the same witness, which is checked against its definition.

The counts are printed as JSON. Each failed check is printed too, and the
exit code is 1 when there is any, else 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from glpart import (  # noqa: E402
    DeviationRule,
    PartitionRequest,
    PreconditionError,
    WeightedGraph,
    class_violation,
    cli,
    solve,
    verify_partition,
)
from glpart.connectivity import clique_decomposition  # noqa: E402
from glpart.graph import induced_subgraph  # noqa: E402
from glpart.instances import Instance  # noqa: E402

from bruteforce import (  # noqa: E402
    bf_class_member,
    bf_gl_partition,
    bf_is_chordal,
    bf_ring_plus_q,
    check_violation,
    format_instance,
    glued_graph,
    projected_order_violation,
)


def _request(rng: random.Random, n: int, k: int) -> PartitionRequest:
    terminals = tuple(sorted(rng.sample(range(n), k)))
    cuts = sorted(rng.sample(range(1, n), k - 1))
    demands = tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))
    return PartitionRequest(terminals, demands)


def _member(g, k, rng, requests, counts, fail) -> None:
    chordal = bf_is_chordal(g)
    kind = "chordal" if chordal else "member"
    counts[kind] += 1
    atoms = clique_decomposition(g)[0]
    counts["member with several rings"] += len(atoms) > 1
    for atom in atoms:
        if atom.ring is None or not bf_ring_plus_q(induced_subgraph(g, atom.ids)[0]):
            fail(f"lemma (a): atom {atom.ids} is not ring + Q")
    wg = WeightedGraph.unit(g)
    rule = DeviationRule.exact() if chordal else DeviationRule.slack(1)
    for kk in range(2, k + 1):
        for _ in range(requests):
            req = _request(rng, g.n, kk)
            try:
                part = solve(wg, req).partition
            except PreconditionError as exc:
                fail(f"refused {req}: {exc}")
                continue
            rep = verify_partition(wg, req, part, rule)
            if not rep.ok:
                fail(f"{req}: {rep.first_violation}")
            counts[f"{kind} deviation {part.deviation}"] += 1
            if part.deviation:
                if bf_gl_partition(g, req.terminals, req.demands) is None:
                    fail(f"{req}: no exact partition")
                counts["exact partition found"] += 1
            if not chordal:
                if projected_order_violation(g, req.terminals) is not None:
                    fail(f"lemma (c'): {req.terminals}")
                counts["(c') plans"] += 1


def _non_member(g, k, path, counts, fail) -> None:
    vio = class_violation(g)
    if vio is None:
        fail("class_violation accepts a non-member")
        return
    try:
        check_violation(g, vio)
    except AssertionError:
        fail(f"witness {vio} does not check")
    counts[f"non-member {vio.kind}"] += 1
    req = PartitionRequest(tuple(range(k)),
                           tuple(g.n // k + (i < g.n % k) for i in range(k)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_instance(Instance(WeightedGraph.unit(g), req)))
    out = path + ".json"
    code = cli.main(["check", path, "--require", "class", "--out", out])
    with open(out, encoding="utf-8") as fh:
        printed = json.load(fh)
    if code != cli.EXIT_PRECONDITION or printed["class_member"]:
        fail(f"check exits {code}")
    if printed["class_violation"] != json.loads(json.dumps(dataclasses.asdict(vio))):
        fail(f"check prints {printed['class_violation']}, not {vio}")
    try:
        solve(WeightedGraph.unit(g), req)
        fail("validated solve accepts a non-member")
    except PreconditionError as exc:
        if exc.witness != vio:
            fail(f"solve refuses with {exc.witness}, not {vio}")


def sweep(seed: int, draws: int, requests: int = 3) -> tuple[Counter, list[str]]:
    """The outcome counts of ``draws`` glued graphs from ``seed``, and a
    line per failed check."""
    rng = random.Random(seed)
    counts: Counter = Counter()
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "glued.txt")
        for draw in range(draws):
            k, n = rng.randint(2, 4), rng.randint(8, 12)
            g, ring_glue = glued_graph(rng, k, n)

            def fail(message: str) -> None:
                failures.append(f"draw {draw} (k={k}, adj={g.adj}): {message}")

            counts["ring edge in a glue"] += ring_glue
            if bf_class_member(g):
                _member(g, k, rng, requests, counts, fail)
            else:
                if not ring_glue:
                    fail("no ring edge in a glue, yet no member")
                _non_member(g, k, path, counts, fail)
    return counts, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--draws", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--requests", type=int, default=3,
                        help="requests per member and k'")
    args = parser.parse_args(argv)
    counts, failures = sweep(args.seed, args.draws, args.requests)
    print(json.dumps(dict(sorted(counts.items())), indent=2))
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
