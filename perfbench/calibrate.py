"""Machine-speed calibration: rescale wall times to a reference speed.

The shared 2-core hosts this benchmark runs on change speed by up to 2x, in
phases that last from a second to several minutes, so a wall time read raw
says as much about the host as about the program. A fixed kernel runs
right before and right after every timed call: it parses a fixed edge list
of a 4,000-vertex random graph, one ``u v`` line per edge, into a dict of
adjacency sets, much as ``glpart`` reads an instance and builds its graph.
Of the kernels tried (graph searches over a small and a large graph, and
this one) it tracked the host's speed changes on glpart's operations best:
the searches slowed less than the operations when the host was busy. The
call's wall time is divided by the mean of those two kernel times and
multiplied by ``REFERENCE_NS``: the result is the time the call would take
on a machine where the kernel takes 13 ms. The kernel is the benchmark's
own code and does not call ``glpart``, so a change to the program cannot
move it.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter_ns

REFERENCE_NS = 13_000_000  # kernel time that defines the reference speed
VERTICES = 4_000
EDGES_PER_VERTEX = 3


def _edge_list() -> str:
    rng = random.Random("perfbench-calibration")  # fixed, never --seed
    lines = []
    for v in range(1, VERTICES):
        for u in sorted({rng.randrange(v) for _ in range(EDGES_PER_VERTEX)}):
            lines.append(f"{u} {v}")
    return "\n".join(lines)


class Calibration:
    """Kernel samples taken between timed calls, and the rescaling."""

    def __init__(self):
        self.text = _edge_list()
        self.samples: list[int] = []
        self.sample()  # warm-up, dropped
        self.samples.clear()

    def _kernel(self) -> int:
        adj: dict[int, set[int]] = {}
        for line in self.text.split("\n"):
            a, b = line.split()
            u, v = int(a), int(b)
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        return len(adj)

    def sample(self) -> int:
        """Time one kernel run (collector paused) and keep the sample."""
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter_ns()
        reached = self._kernel()
        ns = perf_counter_ns() - t0
        if enabled:
            gc.enable()
        if reached != VERTICES:
            raise RuntimeError("calibration edge list lost a vertex")
        self.samples.append(ns)
        return ns

    def rescale(self, ns: int, before: int, after: int) -> float:
        """Wall time ``ns`` at the reference speed, from its two neighbours."""
        return ns * REFERENCE_NS / ((before + after) / 2)
