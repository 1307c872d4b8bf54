"""Immutable undirected graphs with dense vertex ids.

Vertices are always 0..n-1. All operations that change the vertex set
re-densify ids deterministically and report the relabeling, so downstream
output is reproducible bit for bit.

A graph never changes, so each one computes its certificates at most once:
``chordal.mcs_search`` (one record of the search's order, positions,
later lists, witness and violators), ``c4.enumerate_induced_c4`` and
``connectivity.clique_decomposition`` (the vertex sets of the non-complete
clique separator atoms, each marked when it is ring + Q or else holding
its induced subgraph, and the smallest cut) keep their result in the
graph's private memo. The catalog walk, the hole search and the flow all
read an atom's one subgraph. Every operation that builds a new graph
(``with_edges``, ``induced_subgraph``, ``contract_matching``) starts it
with an empty memo.
The memo takes no part in equality, hashing or repr. It holds atom
subgraphs, and none of them refers back to its graph (an atom holding all
of g gets a graph on g's own sets), so a graph and its memo form no
reference cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, compress
from operator import eq
from typing import Iterable, Sequence

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; ``adj[v]`` is the neighbor set of ``v``."""

    adj: tuple[frozenset[int], ...]
    # certificates of this graph: its maximum cardinality search (order,
    # later neighbors and chordality verdict), its 4-cycle catalog, and its
    # non-complete clique separator atoms with the smallest cut
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in _checked(n, edges):
            nbrs[u].append(v)
            nbrs[v].append(u)
        return cls(tuple(map(frozenset, nbrs)))

    @property
    def n(self) -> int:
        return len(self.adj)

    def vertices(self) -> range:
        return range(len(self.adj))

    def edge_count(self) -> int:
        return sum(map(len, self.adj)) // 2

    def is_complete(self) -> bool:
        n = self.n
        return self.edge_count() == n * (n - 1) // 2

    def is_clique(self, vs: Iterable[int]) -> bool:
        """True iff the distinct vertices ``vs`` are pairwise adjacent."""
        adj = self.adj
        return all(v in adj[u] for u, v in combinations(vs, 2))

    def with_edges(self, extra: Iterable[Edge]) -> "Graph":
        """A copy with the given edges added (ids unchanged); only their
        ends get new sets."""
        adj = list(self.adj)
        for u, v in _checked(self.n, extra):
            adj[u] |= {v}
            adj[v] |= {u}
        return Graph(tuple(adj))


def _checked(n: int, edges: Iterable[Edge]) -> Iterable[Edge]:
    """``edges``; ValueError at a pair out of range for n, or a self-loop."""
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at {u}")
        yield u, v


@dataclass(frozen=True)
class MergeMap:
    """Records how contracted vertices map back to an earlier id space.

    ``groups[x]`` is the set of earlier ids folded into current id ``x``.
    The groups partition the earlier vertex set.
    """

    groups: tuple[frozenset[int], ...]

    def expand(self, ids: Iterable[int]) -> frozenset[int]:
        return frozenset().union(*map(self.groups.__getitem__, ids))


def contract_matching(g: Graph, edges: Iterable[Edge]) -> tuple[Graph, MergeMap]:
    """Contract a set of vertex-disjoint edges in one pass.

    Each merged vertex takes the slot of its smaller endpoint; remaining ids
    are re-densified in ascending order of the surviving ids of ``g``.
    Parallel edges collapse. Returns the new graph and the id map back to
    ``g``. Raises ValueError when a pair is not an edge of ``g`` or shares
    a vertex with another pair.
    """
    n = g.n
    rep = list(range(n))  # id in g -> the id of g that keeps its slot
    used: set[int] = set()
    pairs: list[Edge] = []  # (the id that keeps its slot, the one merged in)
    for u, v in edges:
        if v not in g.adj[u]:
            raise ValueError(f"({u}, {v}) is not an edge")
        if u in used or v in used:
            raise ValueError(
                f"contraction edges are not vertex-disjoint at ({u}, {v})"
            )
        used.update((u, v))
        u, v = min(u, v), max(u, v)
        rep[v] = u
        pairs.append((u, v))
    keep = list(compress(range(n), map(eq, rep, range(n))))
    new_id = [0] * n
    for i, x in enumerate(keep):
        new_id[x] = i
    cur = list(map(new_id.__getitem__, rep))

    nbrs = list(map(g.adj.__getitem__, keep))
    groups = list(map(frozenset, zip(keep)))
    for u, v in pairs:
        cu = cur[u]
        nbrs[cu] = (g.adj[u] | g.adj[v]) - {u, v}
        groups[cu] = frozenset((u, v))
    mapped = cur.__getitem__
    graph = Graph(tuple(frozenset(map(mapped, s)) for s in nbrs))
    return graph, MergeMap(tuple(groups))


def merged_weights(weights: Sequence[int], edges: Iterable[Edge]) -> tuple[int, ...]:
    """The positive vertex ``weights`` of a graph after ``contract_matching``
    with ``edges``: each merged vertex weighs its two ends together."""
    out = list(weights)
    for u, v in edges:
        u, v = min(u, v), max(u, v)
        out[u] += out[v]
        out[v] = 0  # the larger end's slot goes, and only it is 0
    return tuple(filter(None, out))


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``s``, densely relabeled.

    Returns (subgraph, id_map) where id_map[new] = old; new ids follow the
    ascending order of the old ids.
    """
    keep = sorted(set(s))
    for x in keep:
        if not (0 <= x < g.n):
            raise ValueError(f"vertex {x} out of range")
    new_id = {old: i for i, old in enumerate(keep)}
    nbrs = [frozenset(new_id[w] for w in g.adj[old] if w in new_id) for old in keep]
    return Graph(tuple(nbrs)), tuple(keep)


def components_within(g: Graph, s: Iterable[int]) -> list[frozenset[int]]:
    """Connected components of the subgraph induced by ``s``.

    Sorted by smallest member, so the result is deterministic.
    """
    members = set(s)
    seen: set[int] = set()
    out: list[frozenset[int]] = []
    for start in sorted(members):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        for x in comp:
            for y in g.adj[x]:
                if y in members and y not in seen:
                    seen.add(y)
                    comp.append(y)
        out.append(frozenset(comp))
    return out


@dataclass(frozen=True)
class WeightedGraph:
    """A graph with positive integer vertex weights."""

    graph: Graph
    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) != self.graph.n:
            raise ValueError("weight vector length must equal vertex count")
        if self.weights and min(self.weights) < 1:
            raise ValueError("vertex weights must be positive integers")

    @classmethod
    def unit(cls, graph: Graph) -> "WeightedGraph":
        return cls(graph, (1,) * graph.n)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def w_max(self) -> int:
        return max(self.weights)

    def total_weight(self) -> int:
        return sum(self.weights)

    def weight_of(self, vertices: Iterable[int]) -> int:
        return sum(self.weights[v] for v in vertices)

    def is_unit(self) -> bool:
        # weights are positive, so the largest one is 1 only when all are
        return max(self.weights, default=1) == 1

