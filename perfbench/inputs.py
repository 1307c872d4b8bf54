"""Workload inputs: instance files built from a seed.

Every member and k-tree comes from ``glpart generate``, called in-process.
Non-members are derived here from a generated member by one small edit that
plants a single class violation, so each one sits just outside the class the
solver accepts. This module parses and writes the instance format on its
own, so the edits and the later checks do not lean on the code under test.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from itertools import combinations

# the violations a non-member can carry, one planted per instance
PLANTS = ("house", "c4-overlap", "hole", "separator")


@dataclass
class Inst:
    """A parsed instance file (the format of ``glpart.instances``)."""

    n: int
    k: int
    weights: list[int]
    terminals: list[int]
    demands: list[int]
    edges: list[tuple[int, int]]
    comment: str = ""

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def add_vertex(self, nbrs) -> int:
        """Append a unit-weight vertex; the last demand absorbs its weight."""
        x = self.n
        self.n += 1
        self.weights.append(1)
        self.demands[-1] += 1
        self.edges.extend((u, x) for u in nbrs)
        return x


def parse_text(text: str) -> Inst:
    comment = ""
    rows: list[list[int]] = []
    for raw in text.splitlines():
        body, _, note = raw.partition("#")
        if not rows and not body.strip() and note and not comment:
            comment = note.strip()
        if body.strip():
            rows.append([int(f) for f in body.split()])
    n, m, k = rows[0]
    if len(rows) != 4 + m:
        raise ValueError(f"expected {4 + m} content lines, found {len(rows)}")
    edges = [(u, v) if u < v else (v, u) for u, v in rows[4:]]
    return Inst(n, k, rows[1], rows[2], rows[3], edges, comment)


def format_text(inst: Inst) -> str:
    out = [f"# {inst.comment}"] if inst.comment else []
    out.append(f"{inst.n} {len(inst.edges)} {inst.k}")
    for row in (inst.weights, inst.terminals, inst.demands):
        out.append(" ".join(map(str, row)))
    out.extend(f"{u} {v}" for u, v in sorted(inst.edges))
    return "\n".join(out) + "\n"


def comment_field(inst: Inst, key: str) -> int:
    for tok in inst.comment.split():
        name, _, value = tok.partition("=")
        if name == key:
            return int(value)
    raise KeyError(key)


def find_induced_c4(adj: list[set[int]]) -> tuple[int, int, int, int]:
    """Some chordless 4-cycle (a, b, c, d) in walk order.

    Scans from the highest id down, since generated members append their
    cycle gadgets after the chordal base.
    """
    for u in reversed(range(len(adj))):
        for w in reversed(range(u)):
            if w in adj[u]:
                continue
            common = sorted(adj[u] & adj[w])
            for a, b in combinations(common, 2):
                if b not in adj[a]:
                    return (u, a, w, b)
    raise ValueError("graph has no induced 4-cycle")


def plant(inst: Inst, kind: str) -> Inst:
    """Copy of a class member carrying one planted violation of ``kind``.

    * ``house``: a new vertex roofs two adjacent vertices of a 4-cycle.
    * ``c4-overlap``: a new path x-y closes a second 4-cycle on one edge of
      an existing one, so the two share two vertices.
    * ``hole``: a fresh 5-cycle joined to a whole k-clique; it is chordless
      and keeps the graph k-connected.
    * ``separator``: a new vertex joined to a (k-1)-clique, which stays in
      the class but has a separator of size k-1.
    """
    out = Inst(inst.n, inst.k, list(inst.weights), list(inst.terminals),
               list(inst.demands), list(inst.edges), f"{inst.comment} plant={kind}")
    adj = inst.adjacency()
    a, b, c, d = find_induced_c4(adj)
    anchor = sorted(adj[a] & adj[b] & adj[c] & adj[d])
    if kind == "house":
        out.add_vertex((a, b))
    elif kind == "c4-overlap":
        x = out.add_vertex((a,))
        out.add_vertex((x, b))
    elif kind == "hole":
        if len(anchor) < inst.k:
            raise ValueError("cycle has no universal k-clique to anchor a hole")
        ring = [out.add_vertex(anchor[:inst.k]) for _ in range(5)]
        out.edges.extend((ring[i], ring[(i + 1) % 5]) for i in range(5))
    elif kind == "separator":
        out.add_vertex(anchor[:inst.k - 1])
    else:
        raise ValueError(f"unknown plant {kind!r}")
    return out


@dataclass(frozen=True)
class Recipe:
    """One instance of a batch: what to generate and how to run it."""

    n: int
    k: int
    weighted: bool
    cycles: int = 0
    plant: str | None = None

    @property
    def member(self) -> bool:
        return self.cycles > 0


@dataclass
class Case:
    """A built instance file, its text, and the recipe it came from."""

    name: str
    recipe: Recipe
    path: str
    text: str
    inst: Inst


def generate(cli_main, recipe: Recipe, seed: int, path: str) -> None:
    argv = ["generate", "--n", str(recipe.n), "--k", str(recipe.k),
            "--seed", str(seed), "--out", path]
    if recipe.cycles:
        # demands above the largest weight, so no terminal is peeled
        argv += ["--cycles", str(recipe.cycles), "--min-demand", "10"]
    if recipe.weighted:
        argv += ["--max-weight", "9"]
    rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"glpart {' '.join(argv)} exited {rc}")


def build_batch(cli_main, recipes, rng: random.Random, workdir: str,
                tag: str) -> list[tuple[str, Recipe, str]]:
    """Write one batch of instance files; returns (name, recipe, path).

    A non-member recipe plants its violation into the member generated just
    before it in the batch.
    """
    built = []
    last_member = None
    for i, r in enumerate(recipes):
        name = f"{tag}-{i}"
        path = os.path.join(workdir, name + ".txt")
        if r.plant:
            text = format_text(plant(last_member, r.plant))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            generate(cli_main, r, rng.randrange(2**31), path)
            if r.member:
                with open(path, encoding="utf-8") as fh:
                    last_member = parse_text(fh.read())
        built.append((name, r, path))
    return built


def timed_batches(cli_main, batches, seed: int, workdir: str, calib=None):
    """Build every batch, timing each; returns (cases per batch, seconds each).

    With a ``calibrate.Calibration``, each batch's time is rescaled to the
    reference speed from the kernel samples taken right before and after it.
    """
    rng = random.Random(seed)
    built, seconds = [], []
    before = calib.sample() if calib else 0
    for b, recipes in enumerate(batches):
        t0 = time.perf_counter_ns()
        built.append(build_batch(cli_main, recipes, rng, workdir, f"b{b}"))
        ns = time.perf_counter_ns() - t0
        if calib:
            after = calib.sample()
            ns = calib.rescale(ns, before, after)
            before = after
        seconds.append(ns / 1e9)
    cases = []
    for files in built:
        cases.append([])
        for name, r, path in files:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            cases[-1].append(Case(name, r, path, text, parse_text(text)))
    return cases, seconds
