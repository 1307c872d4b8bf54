"""Independent partition verification.

The verifier shares nothing with the solvers: it re-derives disjointness,
coverage, terminal containment, connectivity, and the demand rule straight
from the definitions, so a solver bug cannot hide behind shared code. It
takes only data types from the other modules and runs its own connectivity
search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, WeightedGraph
from .partition import GLPartition, PartitionRequest


@dataclass(frozen=True)
class DeviationRule:
    """How achieved parts may differ from their demands.

    ``exact``: part weight equals the demand. ``window``: part weight lies
    strictly inside demand +/- bound. ``slack``: part *size* differs from
    the demand by at most bound.
    """

    kind: str
    bound: int = 0

    @classmethod
    def exact(cls) -> "DeviationRule":
        return cls("exact")

    @classmethod
    def window(cls, bound: int) -> "DeviationRule":
        if bound < 1:
            raise ValueError("window bound must be positive")
        return cls("window", bound)

    @classmethod
    def slack(cls, bound: int) -> "DeviationRule":
        if bound < 0:
            raise ValueError("slack bound must be non-negative")
        return cls("slack", bound)

    @classmethod
    def parse(cls, text: str) -> "DeviationRule":
        if text == "exact":
            return cls.exact()
        for name in ("window", "slack"):
            if text.startswith(name + ":"):
                try:
                    bound = int(text[len(name) + 1:])
                except ValueError:
                    raise ValueError(f"bad deviation bound in {text!r}") from None
                return cls.window(bound) if name == "window" else cls.slack(bound)
        raise ValueError(
            f"unknown deviation rule {text!r}; use exact, window:N or slack:N"
        )

    def admits(self, size: int, weight: int, demand: int) -> bool:
        if self.kind == "exact":
            return weight == demand
        if self.kind == "window":
            return demand - self.bound < weight < demand + self.bound
        return abs(size - demand) <= self.bound


def _connected(g: Graph, part: frozenset[int]) -> bool:
    """True iff the non-empty ``part`` induces a connected subgraph of ``g``."""
    start = next(iter(part))
    reached = {start}
    stack = [start]
    while stack:
        for y in g.adj[stack.pop()]:
            if y in part and y not in reached:
                reached.add(y)
                stack.append(y)
    return len(reached) == len(part)


@dataclass(frozen=True)
class PartReport:
    index: int
    terminal: int
    size: int
    weight: int
    demand: int
    has_terminal: bool
    connected: bool
    demand_ok: bool

    @property
    def ok(self) -> bool:
        return self.has_terminal and self.connected and self.demand_ok


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    disjoint: bool
    covers: bool
    parts: tuple[PartReport, ...]
    first_violation: str | None


def verify_partition(
    wg: WeightedGraph,
    req: PartitionRequest,
    partition: GLPartition,
    rule: DeviationRule,
) -> VerificationReport:
    """Check a claimed partition against its request from first principles."""
    g = wg.graph
    if len(partition.parts) != req.k:
        raise ValueError(
            f"partition has {len(partition.parts)} parts, request has {req.k}"
        )
    violations: list[str] = []

    seen: dict[int, int] = {}
    disjoint = True
    for i, part in enumerate(partition.parts):
        for v in part:
            if not (0 <= v < g.n):
                raise ValueError(f"part {i} contains out-of-range vertex {v}")
            if v in seen:
                disjoint = False
                violations.append(f"vertex {v} appears in parts {seen[v]} and {i}")
            else:
                seen[v] = i
    covers = len(seen) == g.n and disjoint
    if not covers:
        missing = [v for v in g.vertices() if v not in seen]
        if missing:
            violations.append(f"vertices not covered: {missing[:8]}")

    reports: list[PartReport] = []
    for i, part in enumerate(partition.parts):
        t = req.terminals[i]
        d = req.demands[i]
        if not part:
            reports.append(PartReport(i, t, 0, 0, d, False, False, False))
            violations.append(f"part {i} is empty")
            continue
        size = len(part)
        weight = wg.weight_of(part)
        has_t = t in part
        connected = _connected(g, part)
        demand_ok = rule.admits(size, weight, d)
        if not has_t:
            violations.append(f"terminal {t} missing from part {i}")
        if not connected:
            violations.append(f"part {i} is not connected")
        if not demand_ok:
            violations.append(
                f"part {i} has size {size} weight {weight} against demand {d} "
                f"({rule.kind}:{rule.bound})"
            )
        reports.append(PartReport(i, t, size, weight, d, has_t, connected, demand_ok))

    ok = disjoint and covers and all(r.ok for r in reports)
    return VerificationReport(
        ok, disjoint, covers, tuple(reports), violations[0] if violations else None
    )
