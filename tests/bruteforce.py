"""Exhaustive reference implementations used only by the tests.

Everything here works straight from definitions with no shortcuts, so the
library can be checked against code that shares none of its logic. Most
functions are exponential; callers keep n small. Complete graphs, cycles
and paths are built here by name for the tests. ``is_connected_set``,
the test the reference growth loop ends on, which the library's flood
from its masks replaced, follows ``bf_is_connected``. The helpers at the end
are small definitional checks the library itself has no use for, four
thin wrappers over library code that only the tests call, the member
generator that certifies every step, which the library no longer needs,
a member builder whose rings share vertices, the k-tree
builder that lists every k-clique, which the library's clique lookup
replaced, ``generate``'s per-vertex weight draw and its demand split
walked slot by slot, the one-chord-per-walk
terminal chord loop the library's rounds replaced, the clique atom cut
that plays the elimination game out, tests every later set and searches
at every position, which the library's fill from the violators and bulk
cut replaced, the max-flow on a dict network copied for every pair,
which the library's flow on the adjacency sets replaced, the edits that
plant
a defect in a member or drop some of its edges, the line-by-line
instance reader the library's one-pass reader replaced, the growth
loop on per-vertex part sets that the library's bit masks replaced, and
the maximum cardinality search on one lazy heap that the library's
per-count heaps replaced, the oracle's recursive searches that its
explicit stacks replaced, the matching contraction that fed each
neighbour set through a generator, which the library's ``map`` replaced,
and the hole scan over every edge of the graph that the library's scan
of the atoms' edges replaced, with that edge list built off the atoms'
vertex ids.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations, permutations

from glpart import (
    CapError,
    ChordalityWitness,
    DEFAULT_ORACLE_CAP,
    DemandError,
    GLPartition,
    Graph,
    GraphFormatError,
    Instance,
    PipelineInvariantError,
    PartitionRequest,
    PreconditionError,
    SolverStallError,
    WeightedGraph,
    generate_almost_chordal,
    is_hh_i42_free,
    mcs_search,
    recognition,
    vertex_connectivity_at_least,
)
from glpart.c4 import C4Catalog, Cycle, _canonical, enumerate_induced_c4
from glpart.chordal import McsSearch, Peo, _witness_at, mcs_order
from glpart.connectivity import ConnectivityResult, _failure, clique_decomposition
from glpart.graph import MergeMap, components_within
from glpart.instances import format_parts
from glpart.oracle import _feasible, _reachable
from glpart.partition import _STALL, check_demands
from glpart.recognition import _hole_at_edge, scan_catalog_violations


def bf_is_connected(g: Graph, vertices=None) -> bool:
    verts = set(g.vertices()) if vertices is None else set(vertices)
    if not verts:
        return False
    start = next(iter(verts))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w in verts and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == verts


def is_connected_set(g: Graph, s: Iterable[int]) -> bool:
    """True iff ``s`` is non-empty and induces a connected subgraph."""
    todo = set(s)
    if not todo:
        raise ValueError("empty vertex set")
    reached = [todo.pop()]
    for x in reached:
        step = g.adj[x] & todo
        todo -= step
        reached.extend(step)
    return not todo


def _induces_cycle(g: Graph, sub: tuple[int, ...]) -> bool:
    # a chordless cycle induces a connected 2-regular subgraph
    s = set(sub)
    for v in sub:
        if len(g.adj[v] & s) != 2:
            return False
    return bf_is_connected(g, s)


def bf_chordless_cycles(g: Graph, min_len: int = 4) -> list[frozenset[int]]:
    """All vertex sets of size >= min_len that induce a cycle."""
    out = []
    for size in range(min_len, g.n + 1):
        for sub in combinations(range(g.n), size):
            if _induces_cycle(g, sub):
                out.append(frozenset(sub))
    return out


def bf_is_chordal(g: Graph) -> bool:
    return not bf_chordless_cycles(g, 4)


def bf_has_hole(g: Graph) -> bool:
    return bool(bf_chordless_cycles(g, 5))


def bf_induced_c4_sets(g: Graph) -> set[frozenset[int]]:
    return {
        frozenset(sub)
        for sub in combinations(range(g.n), 4)
        if _induces_cycle(g, sub)
    }


def bf_ring_plus_q(g: Graph) -> set[frozenset[int]] | None:
    """The two diagonals of g's ring when g is an induced 4-cycle joined to
    a clique whose vertices see all of it, else None."""
    for ring in bf_induced_c4_sets(g):
        rest = [v for v in g.vertices() if v not in ring]
        if all(u in g.adj[v] for v in rest for u in (*rest, *ring) if u != v):
            return {frozenset(d) for d in combinations(ring, 2)
                    if d[1] not in g.adj[d[0]]}
    return None


def bf_has_c4_overlap(g: Graph) -> bool:
    """Two distinct induced 4-cycles sharing at least two vertices."""
    sets = sorted(bf_induced_c4_sets(g), key=sorted)
    for a, b in combinations(sets, 2):
        if len(a & b) >= 2:
            return True
    return False


# reference patterns for induced-subgraph search
HOUSE_EDGES = ((0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (3, 4))
DOUBLE_HOUSE_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 0),
    (0, 4), (4, 5), (5, 6), (6, 0),
    (1, 4),
)


def bf_contains_induced(g: Graph, pattern: Graph) -> tuple[int, ...] | None:
    """Find an induced embedding of pattern in g by backtracking.

    Returns the image of pattern vertex i at position i, or None.
    """
    pn = pattern.n
    pdeg = [len(pattern.adj[v]) for v in range(pn)]
    image: list[int] = []
    used = set()

    def extend(i: int) -> bool:
        if i == pn:
            return True
        for cand in range(g.n):
            if cand in used or len(g.adj[cand]) < pdeg[i]:
                continue
            ok = True
            for j in range(i):
                want = j in pattern.adj[i]
                have = image[j] in g.adj[cand]
                if want != have:
                    ok = False
                    break
            if ok:
                image.append(cand)
                used.add(cand)
                if extend(i + 1):
                    return True
                image.pop()
                used.remove(cand)
        return False

    return tuple(image) if extend(0) else None


def bf_has_house(g: Graph) -> bool:
    return bf_contains_induced(g, Graph.from_edges(5, HOUSE_EDGES)) is not None


def bf_class_member(g: Graph) -> bool:
    """No hole, no house, no pair of induced C4 sharing >= 2 vertices."""
    return not (bf_has_hole(g) or bf_has_house(g) or bf_has_c4_overlap(g))


def _separates(g: Graph, cut: set[int], u: int, v: int) -> bool:
    if u in cut or v in cut:
        return False
    seen = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        for w in g.adj[x]:
            if w == v:
                return False
            if w not in cut and w not in seen:
                seen.add(w)
                stack.append(w)
    return True


def bf_vertex_connectivity(g: Graph) -> int:
    """Smallest vertex cut size, n - 1 for complete graphs."""
    if g.n < 2:
        return 0
    pairs = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if v not in g.adj[u]
    ]
    if not pairs:
        return g.n - 1
    best = g.n - 1
    rest = list(range(g.n))
    for size in range(best):
        for cut in combinations(rest, size):
            cs = set(cut)
            if any(_separates(g, cs, u, v) for (u, v) in pairs):
                return size
    return best


def bf_minimal_separators(g: Graph) -> set[frozenset[int]]:
    """Minimal u,v-separators over all non-adjacent pairs.

    Supersets of separators still separate, so inclusion-minimality
    reduces to single-element removal checks.
    """
    out: set[frozenset[int]] = set()
    verts = list(range(g.n))
    for u, v in combinations(verts, 2):
        if v in g.adj[u]:
            continue
        others = [x for x in verts if x != u and x != v]
        for size in range(1, len(others) + 1):
            for cut in combinations(others, size):
                cs = set(cut)
                if not _separates(g, cs, u, v):
                    continue
                if all(not _separates(g, cs - {s}, u, v) for s in cs):
                    out.add(frozenset(cs))
    return out


def bf_clique_atoms(g: Graph) -> set[frozenset[int]]:
    """Atoms of a connected graph: its maximal vertex sets that induce a
    connected subgraph with no clique separator (Leimer 1993)."""
    verts = range(g.n)
    cliques = [
        set(c)
        for size in range(1, g.n)
        for c in combinations(verts, size)
        if all(b in g.adj[a] for a, b in combinations(c, 2))
    ]
    atoms: list[set[int]] = []
    for size in range(g.n, 0, -1):
        for sub in combinations(verts, size):
            s = set(sub)
            if any(s <= a for a in atoms) or not bf_is_connected(g, s):
                continue
            if any(c < s and not bf_is_connected(g, s - c) for c in cliques):
                continue
            atoms.append(s)
    return {frozenset(a) for a in atoms}


def bf_elimination_game(g: Graph, order) -> list[set[int]]:
    """Each vertex's later neighbors once ``order`` eliminates g, making
    the later neighbors of every eliminated vertex pairwise adjacent."""
    pos = {v: i for i, v in enumerate(order)}
    nbrs = [set(s) for s in g.adj]
    for v in order:
        for a, b in combinations([u for u in nbrs[v] if pos[u] > pos[v]], 2):
            nbrs[a].add(b)
            nbrs[b].add(a)
    return [{u for u in nbrs[v] if pos[u] > pos[v]} for v in g.vertices()]


def bf_mcs_order(g: Graph) -> tuple[tuple[int, ...], list[list[int]]]:
    """Maximum cardinality search by rescanning every unselected vertex.

    Each step selects the vertex with the most selected neighbors, the
    smallest id among ties. Returns the elimination order, the reverse of
    the selection order, and each vertex's neighbors selected before it,
    in selection order.
    """
    selected: set[int] = set()
    later: list[list[int]] = [[] for _ in range(g.n)]
    selection = []
    for _ in range(g.n):
        v = max(
            (v for v in g.vertices() if v not in selected),
            key=lambda v: (len(g.adj[v] & selected), -v),
        )
        later[v] = [u for u in selection if u in g.adj[v]]
        selected.add(v)
        selection.append(v)
    return tuple(reversed(selection)), later


def bf_witness_at(g: Graph, sigma, v: int) -> ChordalityWitness | None:
    """The chordality witness at v under the positions ``sigma``, from its
    definition: v's later neighbours in ascending id, the earliest of them
    by position, and the first of the others, so the smallest id, that the
    earliest one misses."""
    later = [u for u in range(g.n) if u in g.adj[v] and sigma[u] > sigma[v]]
    if not later:
        return None
    first = min(later, key=lambda u: sigma[u])
    for w in later:
        if w != first and w not in g.adj[first]:
            return ChordalityWitness(v, (first, w))
    return None


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def random_gnp(rng: random.Random, n: int, p: float) -> Graph:
    """Random graph on n vertices, each pair adjacent with probability p."""
    return Graph.from_edges(
        n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    )


def random_chordal(rng: random.Random, n: int) -> Graph:
    """Intersection graph of n random subtrees of a random tree.

    Every such graph is chordal (Gavril 1974), and unlike a k-tree its
    minimal separators come in mixed sizes; it may be disconnected.
    """
    t = rng.randint(1, n)
    tree: list[list[int]] = [[] for _ in range(t)]
    for x in range(1, t):
        p = rng.randrange(x)
        tree[x].append(p)
        tree[p].append(x)
    reach = rng.randint(min(t, 3), min(t, 8))
    subtrees = []
    for _ in range(n):
        root = rng.randrange(t)
        size = rng.randint(1, reach)
        nodes = {root}
        grow = list(tree[root])
        while len(nodes) < size and grow:
            x = grow.pop(rng.randrange(len(grow)))
            if x not in nodes:
                nodes.add(x)
                grow.extend(tree[x])
        subtrees.append(nodes)
    return Graph.from_edges(
        n, [(u, v) for u, v in combinations(range(n), 2) if subtrees[u] & subtrees[v]]
    )


def bf_gl_partition(g: Graph, terminals, demands, weights=None):
    """Exact partition search by direct label enumeration, k**n states.

    Returns part tuples or None. Weights default to all ones; a part
    meets its demand when its weight equals it exactly.
    """
    n = g.n
    k = len(terminals)
    if weights is None:
        weights = (1,) * n
    label = [-1] * n
    for i, t in enumerate(terminals):
        label[t] = i
    free = [v for v in range(n) if label[v] == -1]

    def rec(idx: int):
        if idx == len(free):
            parts = [frozenset(v for v in range(n) if label[v] == i) for i in range(k)]
            for i in range(k):
                if sum(weights[v] for v in parts[i]) != demands[i]:
                    return None
                if not bf_is_connected(g, parts[i]):
                    return None
            return tuple(parts)
        v = free[idx]
        for i in range(k):
            label[v] = i
            got = rec(idx + 1)
            if got is not None:
                return got
        label[v] = -1
        return None

    return rec(0)


def enumerate_minimal_separators(
    g: Graph, max_size: int | None = None, cap_n: int = 14
) -> list[frozenset[int]]:
    """All minimal vertex separators of ``g``, by exhaustive subset sweep.

    A set S is recorded when G - S has at least two components and every
    vertex of S has a neighbor in two of them (so S is a minimal u-w
    separator for some pair u, w drawn from those components). Exponential;
    refuses n > cap_n.
    """
    n = g.n
    if n > cap_n:
        raise CapError(f"n={n} exceeds the enumeration cap {cap_n}")
    limit = n - 2 if max_size is None else min(max_size, n - 2)
    found: set[frozenset[int]] = set()
    verts = list(g.vertices())
    for size in range(1, limit + 1):
        for subset in combinations(verts, size):
            s = frozenset(subset)
            comps = components_within(g, set(verts) - s)
            if len(comps) < 2:
                continue
            # s is a minimal separator iff two components both see all of s
            full = [c for c in comps if all(g.adj[x] & c for x in s)]
            if len(full) >= 2:
                found.add(s)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def contract_edge(g: Graph, u: int, v: int) -> tuple[Graph, MergeMap]:
    """Contract edge (u, v), merging v's neighborhood into u's.

    The merged vertex takes the slot of min(u, v); remaining ids are
    re-densified in ascending order of the surviving original ids. Parallel
    edges collapse. Returns the new graph and the id map back to ``g``.
    """
    if u == v:
        raise ValueError("cannot contract a vertex with itself")
    if v not in g.adj[u]:
        raise ValueError(f"({u}, {v}) is not an edge")
    lo, hi = (u, v) if u < v else (v, u)
    keep = [x for x in g.vertices() if x != hi]
    new_id = {old: i for i, old in enumerate(keep)}
    merged = new_id[lo]

    nbrs: list[set[int]] = [set() for _ in keep]
    for a, b in g.edges():
        a2 = merged if a in (lo, hi) else new_id[a]
        b2 = merged if b in (lo, hi) else new_id[b]
        if a2 == b2:
            continue
        nbrs[a2].add(b2)
        nbrs[b2].add(a2)
    graph = Graph(tuple(frozenset(s) for s in nbrs))
    groups = tuple(
        frozenset((lo, hi)) if i == merged else frozenset((keep[i],))
        for i in range(len(keep))
    )
    return graph, MergeMap(groups)


def compose(later: MergeMap, earlier: MergeMap) -> MergeMap:
    """Map through ``earlier``: ``later``'s groups are over earlier's ids."""
    return MergeMap(tuple(earlier.expand(g) for g in later.groups))


def is_peo(g: Graph, peo: Peo) -> bool:
    """Direct definition check: every vertex plus its later neighbors is a clique."""
    if peo.n != g.n:
        return False
    sigma = peo.sigma
    for v in g.vertices():
        later = [u for u in g.adj[v] if sigma[u] > sigma[v]]
        for i, a in enumerate(later):
            for b in later[i + 1:]:
                if b not in g.adj[a]:
                    return False
    return True


def universal_to(g: Graph, v: int, cycle: Cycle) -> bool:
    """True iff v is adjacent to all four vertices of the cycle."""
    if v in cycle:
        raise ValueError(f"vertex {v} lies on the cycle")
    return all(c in g.adj[v] for c in cycle)


def cycles_of(catalog: C4Catalog, v: int) -> tuple[int, ...]:
    """Indices of the catalogued cycles through vertex v."""
    return tuple(i for i, c in enumerate(catalog) if v in c)


def shared_vertices(catalog: C4Catalog) -> tuple[int, ...]:
    """Vertices lying on at least two catalogued cycles, ascending."""
    on_cycles = {v for c in catalog for v in c}
    return tuple(sorted(v for v in on_cycles if len(cycles_of(catalog, v)) >= 2))


def iter_nonedges(g: Graph):
    """Non-adjacent vertex pairs (u, v) with u < v, in lexicographic order."""
    for u in g.vertices():
        for v in range(u + 1, g.n):
            if v not in g.adj[u]:
                yield (u, v)


def dfs_find_hole(g: Graph, through: int | None = None):
    """Reference hole search: a depth-first walk over induced paths.

    For each vertex v in ascending order, look for an induced path of at
    least three edges between two non-adjacent neighbors of v that avoids
    the rest of N[v]; such a path closes into a hole through v. After v is
    cleared it is deleted. Exact but exponential in the worst case. With
    ``through`` set, search only for holes containing that vertex.
    """
    adj = g.adj

    def path_to(allowed, path, target):
        for u in sorted(adj[path[-1]] & allowed):
            if u == target:
                if len(path) >= 3 and all(u not in adj[p] for p in path[:-1]):
                    return path + [u]
                continue
            if u in path or any(u in adj[p] for p in path[:-1]):
                continue
            res = path_to(allowed, path + [u], target)
            if res is not None:
                return res
        return None

    def hole_through(active, v):
        nbrs = sorted(adj[v] & active)
        for i, c1 in enumerate(nbrs):
            for c2 in nbrs[i + 1:]:
                if c2 in adj[c1]:
                    continue
                path = path_to((active - adj[v] - {v}) | {c2}, [c1], c2)
                if path is not None:
                    return (v, *path)
        return None

    active = set(g.vertices())
    if through is not None:
        return hole_through(active, through)
    for v in g.vertices():
        hole = hole_through(active, v)
        if hole is not None:
            return hole
        active.discard(v)
    return None


def all_pairs_induced_c4(g: Graph) -> C4Catalog:
    """Reference 4-cycle catalog scanning every non-adjacent pair (u, w)."""
    seen = {}
    for u in g.vertices():
        for w in range(u + 1, g.n):
            if w in g.adj[u]:
                continue
            common = sorted(g.adj[u] & g.adj[w])
            for i, a in enumerate(common):
                for b in common[i + 1:]:
                    if b in g.adj[a]:
                        continue
                    key = tuple(sorted((u, w, a, b)))
                    if key not in seen:
                        seen[key] = _canonical((u, w), (a, b))
    return tuple(sorted(seen.values()))


def cycle_edges(cycle: Cycle) -> tuple[tuple[int, int], ...]:
    """The four ring edges of a catalogued cycle, each as (min, max)."""
    a, b, c, d = cycle
    return tuple(
        (x, y) if x < y else (y, x) for x, y in ((a, b), (b, c), (c, d), (d, a))
    )


@dataclass(frozen=True)
class C4IncidenceGraph:
    """Bipartite incidence of cycles vs. vertices shared by >= 2 cycles.

    Each edge pairs a cycle index with a shared graph vertex. On class
    members this structure is a forest; that is what guarantees the
    contraction greedy always finds a cycle with three private vertices.
    """

    cycle_count: int
    is_forest: bool


def build_c4_incidence(catalog: C4Catalog) -> C4IncidenceGraph:
    """Reference forest test for the cycle/shared-vertex incidence, by union-find."""
    shared = shared_vertices(catalog)
    m = len(catalog)
    index = {v: m + i for i, v in enumerate(shared)}
    parent = list(range(m + len(shared)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in shared:
        for ci in cycles_of(catalog, v):
            a, b = find(ci), find(index[v])
            if a == b:
                return C4IncidenceGraph(m, False)
            parent[a] = b
    return C4IncidenceGraph(m, True)


def quadratic_contraction_edges(g: Graph, terminals) -> tuple[tuple[int, int], ...]:
    """Reference greedy of ``build_contraction_plan``, without its heap.

    Before each pick it recounts every remaining cycle's vertices and scans
    the remaining cycles in catalog order for the first with three private
    vertices, O(c^2) for c cycles. Raises the library's errors with the
    library's texts when the greedy gets stuck.
    """
    catalog = enumerate_induced_c4(g)
    tset = set(terminals)
    remaining = list(range(len(catalog)))
    chosen = []
    while remaining:
        counts: dict[int, int] = {}
        for ci in remaining:
            for v in catalog[ci]:
                counts[v] = counts.get(v, 0) + 1
        pick = None
        for ci in remaining:
            private = sorted(v for v in catalog[ci] if counts[v] == 1)
            if len(private) >= 3:
                pick = (ci, private[:3])
                break
        if pick is None:
            raise PreconditionError(
                "no remaining induced 4-cycle has three private vertices; "
                "input is outside the supported class"
            )
        ci, triple = pick
        free = [v for v in triple if v not in tset]
        if not free:
            raise PipelineInvariantError(
                "cycle triple consists of terminals only; terminal chords "
                "were not applied or the input is outside the supported class"
            )
        v = free[0]
        cyc = catalog[ci]
        pos = cyc.index(v)
        partner = min({cyc[(pos - 1) % 4], cyc[(pos + 1) % 4]} & set(triple))
        chosen.append((v, partner) if v < partner else (partner, v))
        remaining.remove(ci)
    return tuple(chosen)


def identity_merge_map(n: int) -> MergeMap:
    """The merge map of a graph with nothing contracted."""
    return MergeMap(tuple(frozenset((v,)) for v in range(n)))


def format_instance(inst: Instance, comment: str | None = None) -> str:
    """The text of ``inst``, with its graph's edges in ``Graph.edges()`` order."""
    g = inst.graph
    later = [sorted(v for v in g.adj[u] if v > u) for u in range(g.n)]
    return format_parts(g.n, later, inst.wgraph.weights, inst.request, comment)


def save_instance(inst: Instance, path: str, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_instance(inst, comment))


def compute_peo(g: Graph) -> Peo | ChordalityWitness:
    """The graph's search order when it is perfect-elimination, else the
    witness against it."""
    search = mcs_search(g)
    return search.witness or search.peo


def is_chordal(g: Graph) -> bool:
    if g.n == 0:
        return True
    return isinstance(compute_peo(g), Peo)


def whole_graph_find_hole(g: Graph, edges=None) -> tuple[int, ...] | None:
    """The hole through the first of ``edges`` that lies on one, or None.

    By default ``edges`` is every edge of g in ``g.edges()`` order: the
    scan that ``recognition.find_hole`` replaced by the edges inside atoms
    that are not ring + Q. The per-edge test is looked up on
    ``recognition`` at each call, so a spy on it counts this scan too.
    """
    if edges is None:
        edges = ((u, v) for u, nbrs in enumerate(g.adj) for v in sorted(nbrs) if u < v)
    return next(filter(None, (recognition._hole_at_edge(g.adj, b, c)
                              for b, c in edges)), None)


def bf_atom_edges(g: Graph) -> list[tuple[int, int]]:
    """Every edge inside some atom of ``clique_decomposition(g)`` that is
    not ring + Q, sorted: one set built off the atoms' ids and g's own
    sets, with no subgraph."""
    inside = set()
    for atom in clique_decomposition(g)[0]:
        if not atom.ring:
            members = frozenset(atom.ids)
            inside.update((u, v) for u in atom.ids
                          for v in g.adj[u] & members if u < v)
    return sorted(inside)


def find_hole_through(g: Graph, v: int) -> tuple[int, ...] | None:
    """Some hole containing vertex v, or None. Exact for that vertex."""
    for c in sorted(g.adj[v]):
        hole = _hole_at_edge(g.adj, v, c)
        if hole is not None:
            return hole
    return None


def bf_ktree_edges_and_cliques(n: int, k: int, rng: random.Random):
    """Edge list of a random k-tree plus all of its k-cliques, kept
    verbatim: the library's generator keeps one base clique per vertex and
    reads each clique off on demand."""
    edges = list(combinations(range(k + 1), 2))
    cliques = [tuple(c) for c in combinations(range(k + 1), k)]
    for v in range(k + 1, n):
        base = cliques[rng.randrange(len(cliques))]
        edges.extend((u, v) for u in base)
        for rest in combinations(base, k - 1):
            cliques.append(tuple(sorted(rest + (v,))))
    return edges, cliques


def bf_compose_demands(
    rng: random.Random, k: int, total: int, floors: list[int]
) -> list[int]:
    """``generate``'s composition of ``total`` above ``floors``, walked
    slot by slot: the k - 1 slots among slack + k - 1 that the same Floyd
    draws pick are bars, every other slot is a star, and each part gets its
    floor plus the stars between its bars."""
    base = sum(floors)
    if base > total:
        raise DemandError(f"floors sum to {base}, above the total {total}")
    slots = total - base + k - 1
    bars = set()
    for top in range(slots - k + 2, slots + 1):
        bar = rng.randrange(top)
        bars.add(top - 1 if bar in bars else bar)
    demands = list(floors)
    part = 0
    for slot in range(slots):
        if slot in bars:
            part += 1
        else:
            demands[part] += 1
    return demands


def bf_weights(rng: random.Random, n: int, max_weight: int) -> tuple[int, ...]:
    """``generate``'s weight draw: one ``randint`` call per vertex."""
    return tuple(rng.randint(1, max_weight) for _ in range(n))


def bf_generate_almost_chordal(n: int, k: int, cycles: int, seed: int) -> Graph:
    """Reference member generator that certifies every step.

    Appends one ring-plus-anchor gadget at a time, rebuilds the graph and
    keeps the step only when the catalog grew by exactly one, the house and
    overlap scans stay clean and no hole passes through a fresh vertex; a
    rejected step redraws its anchor, up to 20 attempts per requested
    cycle. While no step is rejected it draws the same random numbers as
    ``generate_almost_chordal``; a rejection leaves it short of n vertices.
    """
    rng = random.Random(seed)
    edges, cliques = bf_ktree_edges_and_cliques(n - 4 * cycles, k, rng)
    g = Graph.from_edges(n - 4 * cycles, edges)
    achieved = 0
    attempts = 20 * max(cycles, 1)
    while achieved < cycles and attempts > 0:
        attempts -= 1
        anchor = cliques[rng.randrange(len(cliques))]
        fresh = p, q, r, s = tuple(range(g.n, g.n + 4))
        ring = [(p, q), (q, r), (r, s), (p, s)]
        cand = Graph.from_edges(
            g.n + 4, g.edges() + ring + [(x, y) for x in anchor for y in fresh]
        )
        catalog = enumerate_induced_c4(cand)
        if len(catalog) != achieved + 1:
            continue
        if scan_catalog_violations(cand, catalog) is not None:
            continue
        if any(find_hole_through(cand, v) is not None for v in fresh):
            continue
        g = cand
        achieved += 1
    return g


def shared_vertex_member(
    n: int, k: int, cycles: int, extra: int, seed: int
) -> Graph:
    """A member whose rings share vertices, certified.

    Starts from ``generate_almost_chordal(n, k, cycles, seed)`` and hangs
    ``extra`` new rings on distinct vertices p of its rings: three fresh
    vertices close a ring p-q-r-s, and q, r and s are joined to k - 1
    vertices B of the old ring's anchor. B and p form a k-clique that sees
    the whole new ring, so the result is a k-connected member in which
    each new ring shares p with an old one. The result is checked with
    ``is_hh_i42_free`` on a copy, so its own memo stays empty, and with
    ``bf_class_member`` when it has at most 14 vertices.
    """
    rng = random.Random(seed)
    g = generate_almost_chordal(n, k, cycles, seed)
    ring_vertices = [(ring, p) for ring in all_pairs_induced_c4(g) for p in ring]
    hosts = rng.sample(ring_vertices, extra)
    edges = g.edges()
    for i, (ring, p) in enumerate(hosts):
        q, r, s = range(g.n + 3 * i, g.n + 3 * i + 3)
        anchor = frozenset.intersection(*(g.adj[v] for v in ring))
        edges += [(p, q), (q, r), (r, s), (p, s)]
        edges += [(b, y) for b in rng.sample(sorted(anchor), k - 1) for y in (q, r, s)]
    total = g.n + 3 * extra
    assert is_hh_i42_free(Graph.from_edges(total, edges)), (n, k, cycles, extra, seed)
    member = Graph.from_edges(total, edges)
    assert total > 14 or bf_class_member(member), (n, k, cycles, extra, seed)
    return member


def bf_add_terminal_chords(
    g: Graph, terminals
) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Reference ``add_terminal_chords``: one chord per catalog walk.

    Scans the catalog from its start for the first cycle holding a
    non-adjacent terminal pair, takes the smallest such pair, adds it as a
    chord to a new graph, and repeats on that graph's fresh catalog until
    no cycle has one.
    """
    tset = set(terminals)
    added = []
    while True:
        chord = None
        for cycle in enumerate_induced_c4(g):
            on_cycle = sorted(tset.intersection(cycle))
            pairs = ((a, b) for i, a in enumerate(on_cycle) for b in on_cycle[i + 1:])
            chord = next((e for e in pairs if e[1] not in g.adj[e[0]]), None)
            if chord:
                break
        if chord is None:
            return g, tuple(added)
        g = g.with_edges([chord])
        added.append(chord)


def bf_clique_atoms_every_set(g: Graph) -> tuple[list[tuple[list[int], bool]], int]:
    """Reference for ``connectivity.clique_decomposition``: the same cut
    along g's elimination game, played out by ``bf_elimination_game``, but
    with an ``is_clique`` test of every later set and a component search
    at every position. Returns every atom, complete ones included, each
    marked when x was alone in its component, and the smallest cut. The
    game is declined, and g left whole, once it adds more than m edges."""
    order = mcs_order(g)
    later = bf_elimination_game(g, order)
    # each edge of H is one vertex's later neighbor: m edges of g plus fill
    if sum(map(len, later)) > 2 * g.edge_count():
        later = None
    alive = [True] * g.n
    left = smallest = g.n
    atoms = []
    for x in () if later is None else order:
        sep = sorted(later[x], key=order.index)
        if not g.is_clique(sep):
            continue
        seen = {x, *sep}
        comp = [x]
        for y in comp:
            for u in g.adj[y]:
                if alive[u] and u not in seen:
                    seen.add(u)
                    comp.append(u)
        if len(seen) < left:
            for v in comp:
                alive[v] = False
            left -= len(comp)
            atoms.append((comp + sep, len(comp) == 1))
            smallest = min(smallest, len(sep))
    rest = [v for v in g.vertices() if alive[v]]
    return [*atoms, (rest, g.is_clique(rest))], smallest


def bf_split_network(g: Graph) -> list[dict[int, int]]:
    """Residual capacities of the vertex-split flow network of ``g``.

    Node 2x is the in-copy of x, 2x+1 the out-copy. Split arcs have unit
    capacity; every arc's reverse is present, so augmenting never adds keys
    and a copy of this network keeps its iteration order.
    """
    n = g.n
    cap: list[dict[int, int]] = [dict() for _ in range(2 * n)]
    for x in g.vertices():
        cap[2 * x][2 * x + 1] = 1
        cap[2 * x + 1][2 * x] = 0
    # edge arcs get capacity n so any finite min cut uses split arcs only,
    # which is what the separator extraction below reads off
    for u, v in g.edges():
        for a, b in ((u, v), (v, u)):
            cap[2 * a + 1][2 * b] = n
            cap[2 * b].setdefault(2 * a + 1, 0)
    return cap


def bf_split_flow_mincut(base: list[dict[int, int]], s: int, t: int, limit: int):
    """Reference ``connectivity._split_flow_mincut``: max s-t flow in a copy
    of the split network ``base`` built as dicts, stopping at ``limit``.

    Returns None once ``limit`` vertex-disjoint paths exist, else the
    minimum vertex cut (ascending, excluding s and t).
    """
    cap = [d.copy() for d in base]
    source = 2 * s + 1
    sink = 2 * t
    flow = 0
    while flow < limit:
        parent: dict[int, int] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            x = queue.popleft()
            for y, c in cap[x].items():
                if c > 0 and y not in parent:
                    parent[y] = x
                    queue.append(y)
        if sink not in parent:
            break
        y = sink
        while y != source:
            x = parent[y]
            cap[x][y] -= 1
            cap[y][x] += 1
            y = x
        flow += 1
    if flow >= limit:
        return None
    # saturated: vertices whose in-copy is reachable but out-copy is not
    reach = {source}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y, c in cap[x].items():
            if c > 0 and y not in reach:
                reach.add(y)
                queue.append(y)
    return tuple(
        x for x in range(len(base) // 2)
        if 2 * x in reach and 2 * x + 1 not in reach
    )


def bf_flow_connectivity(g: Graph, k: int) -> ConnectivityResult:
    """Reference ``connectivity._flow_connectivity``: the same pair schedule
    over the dict network, built once and copied for every pair."""
    deg_min = min(g.degree(v) for v in g.vertices())
    v = min(x for x in g.vertices() if g.degree(x) == deg_min)
    pairs = [(v, u) for u in g.vertices() if u != v and u not in g.adj[v]]
    pairs += [
        (a, b) for a, b in combinations(sorted(g.adj[v]), 2) if b not in g.adj[a]
    ]
    base = bf_split_network(g)
    for s, t in pairs:
        cut = bf_split_flow_mincut(base, s, t, k)
        if cut is not None:
            return _failure(cut, s, t)
    return ConnectivityResult(True)


def with_planted_cycle(g: Graph, length: int, clique: tuple[int, ...]) -> Graph:
    """Append a chordless cycle of ``length`` fresh vertices, each joined to
    every vertex of ``clique``."""
    ring = range(g.n, g.n + length)
    edges = list(g.edges())
    edges += [(v, g.n + (v - g.n + 1) % length) for v in ring]
    edges += [(x, v) for x in clique for v in ring]
    return Graph.from_edges(g.n + length, edges)


def planted(member: Graph, k: int, kind: str) -> Graph:
    """``member`` with one planted defect next to its last 4-cycle, or on
    the k-clique 0..k-1 of its k-tree base."""
    a, b = enumerate_induced_c4(member)[-1][:2]  # adjacent on the ring
    n = member.n
    if kind == "hole":
        return with_planted_cycle(member, 5, tuple(range(k)))
    extra = {
        "house": [(a, n), (b, n)],
        "c4-overlap": [(a, n), (n, n + 1), (n + 1, b)],
        "separator": [(x, n) for x in range(k - 1)],
    }[kind]
    return Graph.from_edges(
        max(max(e) for e in extra) + 1, member.edges() + extra
    )


def without_edges(g: Graph, rng: random.Random, count: int) -> Graph:
    edges = g.edges()
    drop = set(rng.sample(range(len(edges)), count))
    return Graph.from_edges(g.n, [e for i, e in enumerate(edges) if i not in drop])


def _int_fields(raw: str, line_no: int, expect: int | None = None) -> list[int]:
    fields = raw.split()
    try:
        values = [int(f) for f in fields]
    except ValueError:
        raise GraphFormatError(f"expected integers, got {raw!r}", line_no) from None
    if expect is not None and len(values) != expect:
        raise GraphFormatError(
            f"expected {expect} integers, got {len(values)}", line_no
        )
    return values


def bf_parse_instance(text: str) -> Instance:
    """The reference reader: one checked helper call per line, an edge
    list, and ``Graph.from_edges``."""
    lines: list[tuple[int, str]] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((i, body))
    if len(lines) < 4:
        raise GraphFormatError("file needs header, weights, terminals and demands")

    line_no, head = lines[0]
    header = _int_fields(head, line_no, 3)
    n, m, k = header
    if n < 1:
        raise GraphFormatError("vertex count must be positive", line_no)
    if m < 0 or k < 1:
        raise GraphFormatError("edge and terminal counts must be sensible", line_no)
    if len(lines) != 4 + m:
        raise GraphFormatError(
            f"expected {4 + m} content lines for m={m}, found {len(lines)}"
        )

    line_no, raw = lines[1]
    weights = _int_fields(raw, line_no, n)
    if any(w < 1 for w in weights):
        raise GraphFormatError("weights must be positive", line_no)

    line_no, raw = lines[2]
    terminals = _int_fields(raw, line_no, k)
    for t in terminals:
        if not (0 <= t < n):
            raise GraphFormatError(f"terminal {t} out of range", line_no)
    if len(set(terminals)) != k:
        raise GraphFormatError("terminals must be distinct", line_no)

    line_no, raw = lines[3]
    demands = _int_fields(raw, line_no, k)

    edges = []
    for line_no, raw in lines[4:]:
        u, v = _int_fields(raw, line_no, 2)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge endpoint out of range in {raw!r}", line_no)
        if u == v:
            raise GraphFormatError(f"self-loop at {u}", line_no)
        edges.append((u, v) if u < v else (v, u))

    graph = Graph.from_edges(n, edges)
    wgraph = WeightedGraph(graph, tuple(weights))
    request = PartitionRequest(tuple(terminals), tuple(demands))
    return Instance(wgraph, request)


def bf_grow_chordal_weighted(
    wg: WeightedGraph,
    req: PartitionRequest,
    *,
    validate: bool = True,
    allow_overweight_terminals: bool = False,
) -> GLPartition:
    """The growth loop as it ran on per-vertex part sets, kept verbatim.

    The library's loop keeps the same rule, picks and checks on bit masks;
    tests require both to return the same parts and deviation, or to raise
    the same exception with the same message.
    """
    g = wg.graph
    overweight_seen = check_demands(
        wg, req, allow_overweight=allow_overweight_terminals
    )
    search = mcs_search(g)
    if validate:
        wit = search.witness
        if wit is not None:
            raise PreconditionError(
                "input graph is not chordal: vertex "
                f"{wit.vertex} has non-adjacent later neighbors {wit.nonadjacent}",
                witness=wit,
            )
        res = vertex_connectivity_at_least(g, req.k)
        if not res:
            raise PreconditionError(
                f"input graph is not {req.k}-connected: {res.reason}",
                witness=res.witness,
            )

    n, k = g.n, req.k
    # unvalidated, a non-chordal graph grows along its search order anyway;
    # a bad order can only surface as a stall
    adj, sigma, order = g.adj, search.peo.sigma, search.peo.order
    weights, demands = wg.weights, req.demands
    w_max = wg.w_max
    # Per part: its vertices, its weight and its largest elimination
    # position. The positions are distinct across parts (parts are
    # disjoint), so the part choice is a strict minimum and the whole run
    # is deterministic.
    parts: list[set[int]] = [set() for _ in range(k)]
    part_weight = [0] * k
    priority = [-1] * k
    part_of: list[int | None] = [None] * n
    # per unassigned vertex, the parts it neighbors
    adj_parts: list[set[int]] = [set() for _ in range(n)]
    # heap of elimination positions (vertex order[position - 1]), at most
    # one entry per unassigned vertex. A vertex is pushed when it gains its
    # first part, and again when it gains a part after its entry was dropped
    # for having no open part. Parts only ever close, so every unassigned
    # vertex next to an open part has an entry; stale tops are dropped
    # lazily. The key does not depend on the part, so one entry picks the
    # same vertex as one entry per (vertex, part) pair would.
    frontier: list[int] = []
    queued = [False] * n
    assigned = 0

    def assign(v: int, i: int) -> None:
        nonlocal assigned
        part_of[v] = i
        parts[i].add(v)
        part_weight[i] += weights[v]
        if sigma[v] > priority[i]:
            priority[i] = sigma[v]
        assigned += 1
        for u in adj[v]:
            if part_of[u] is None and i not in adj_parts[u]:
                adj_parts[u].add(i)
                if not queued[u]:
                    queued[u] = True
                    heapq.heappush(frontier, sigma[u])

    for i, t in enumerate(req.terminals):
        assign(t, i)
    open_ = [part_weight[i] < demands[i] for i in range(k)]
    open_count = sum(open_)
    # sum of (demand - weight) over closed parts
    closed_slack = sum(demands[i] - part_weight[i] for i in range(k) if not open_[i])

    # Neither check fires on a correct run. Every pass assigns a vertex or
    # closes a part, so n + k passes suffice. A close overshoots its demand
    # only while the slack is >= 0 and otherwise stops short, so each close
    # adds a value in (-w, 0] or (0, w) for the vertex weight w it stopped
    # at, and the slack never leaves (-w_max, w_max).
    iterations = 0
    max_iterations = n + k
    while open_count > 1 and assigned < n:
        iterations += 1
        if iterations > max_iterations:
            raise PipelineInvariantError(
                "growth loop exceeded its iteration budget"
            )
        # earliest-position unassigned vertex adjacent to an open part
        while frontier:
            v = order[frontier[0] - 1]
            if part_of[v] is None:
                open_parts = [i for i in adj_parts[v] if open_[i]]
                if open_parts:
                    break
                queued[v] = False
            heapq.heappop(frontier)
        else:
            raise SolverStallError(_STALL)
        i = min(open_parts, key=priority.__getitem__)
        wv = weights[v]
        if part_weight[i] + wv < demands[i]:
            assign(v, i)
        else:
            # close part i; the dump part inherits the slack
            open_[i] = False
            open_count -= 1
            if closed_slack >= 0 or part_weight[i] + wv == demands[i]:
                assign(v, i)
            closed_slack += demands[i] - part_weight[i]
            if not overweight_seen and not -w_max < closed_slack < w_max:
                raise PipelineInvariantError(
                    f"closed-part weight slack {closed_slack} escaped "
                    f"(-{w_max}, {w_max})"
                )

    if assigned < n:
        if open_count != 1:
            raise SolverStallError(
                "unassigned vertices remain but no part is open"
            )
        last = open_.index(True)
        rest = [v for v in range(n) if part_of[v] is None]
        parts[last].update(rest)
        part_weight[last] += sum(weights[v] for v in rest)
        # growing the last part on would reach exactly these vertices, or
        # stall when some of them hang off another part only
        if not is_connected_set(g, parts[last]):
            raise SolverStallError(_STALL)

    deviation = max(abs(pw - d) for pw, d in zip(part_weight, demands))
    return GLPartition(tuple(frozenset(p) for p in parts), deviation)


def bf_heap_mcs_search(g: Graph) -> McsSearch:
    """The maximum cardinality search on one lazy heap, kept as it was
    but for recording each vertex's madj list.

    Every count increment pushes a key ``v - count*n``, and each selection
    intersects madj(v) with the parent's neighborhood through a set of the
    selected vertices. The library's search buckets the heap by count and
    checks the order from madj lists; tests require both to return the same
    ``McsSearch``.
    """
    n = g.n
    if n == 0:
        raise ValueError("graph must be non-empty")
    adj = g.adj
    count = [0] * n  # frozen at the label once the vertex is selected
    later: list[list[int]] = [[] for _ in range(n)]  # madj, selection order
    parent = [0] * n  # last neighbor selected before: the earliest later one
    sigma = [0] * n  # 0 until selected
    order = [0] * n
    done: set[int] = set()  # selected so far, so adj[v] & done is madj(v)
    bad: list[int] = []
    # key v - count*n orders like (-count, v); a vertex's freshest key pops
    # before its stale ones, and range(n) is already a heap
    heap = list(range(n))
    pop, push = heapq.heappop, heapq.heappush
    for i in range(n, 0, -1):
        v = pop(heap) % n
        while sigma[v]:
            v = pop(heap) % n
        sigma[v] = i
        order[i - 1] = v
        c = count[v]
        # madj(v) minus the parent must lie inside the parent's neighborhood;
        # violators are found in selection order, the elimination order's
        # reverse
        if c > 1 and len(adj[v].intersection(done, adj[parent[v]])) != c - 1:
            bad.append(v)
        done.add(v)
        for u in adj[v]:
            if not sigma[u]:
                cu = count[u] + 1
                count[u] = cu
                parent[u] = v
                later[u].append(v)
                push(heap, u - cu * n)
    peo = Peo(tuple(order), tuple(sigma))
    bad.reverse()
    witness = _witness_at(g, peo.sigma, bad[0]) if bad else None
    return McsSearch(peo, later, witness, tuple(bad))


def bf_recursive_connected_sets(
    g: Graph, start: int, size: int, allowed: frozenset[int]
):
    """The oracle's connected-set enumeration on nested recursive
    generators, kept verbatim.

    It recurses once per vertex it adds, so a set of about a thousand
    vertices hits Python's recursion limit. The library's enumeration
    walks an explicit stack; tests require both to yield the same sets in
    the same order.
    """

    def rec(cur: frozenset[int], banned: frozenset[int]):
        if len(cur) == size:
            yield cur
            return
        usable = allowed - banned
        if _reachable(g, cur, usable) < size:
            return
        ext: set[int] = set()
        for x in cur:
            ext |= g.adj[x]
        ext = sorted((ext & usable) - cur)
        for i, c in enumerate(ext):
            yield from rec(cur | {c}, banned | frozenset(ext[:i]))

    if start in allowed and size >= 1:
        yield from rec(frozenset((start,)), frozenset())


def bf_recursive_brute_force_gl(
    g: Graph, req: PartitionRequest, *, cap: int = DEFAULT_ORACLE_CAP
) -> GLPartition | None:
    """The oracle on a recursive part placement, kept verbatim.

    The library's ``brute_force_gl`` places parts from an explicit stack;
    tests require both to return the same partition, or None, and to
    raise the same errors.
    """
    n = g.n
    if n > cap:
        raise CapError(f"n={n} exceeds the oracle cap {cap}")
    check_demands(WeightedGraph.unit(g), req)

    k = req.k

    def place(i: int, available: frozenset[int]):
        if i == k:
            return [] if not available else None
        t = req.terminals[i]
        later = frozenset(req.terminals[i + 1:])
        for s in bf_recursive_connected_sets(g, t, req.demands[i], available - later):
            rest = available - s
            if _feasible(g, rest, req.terminals[i + 1:], req.demands[i + 1:]):
                tail = place(i + 1, rest)
                if tail is not None:
                    return [s] + tail
        return None

    solution = place(0, frozenset(g.vertices()))
    if solution is None:
        return None
    return GLPartition(tuple(frozenset(s) for s in solution), 0)
