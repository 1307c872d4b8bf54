"""Exhaustive reference implementations used only by the tests.

Everything here works straight from definitions with no shortcuts, so the
library can be checked against code that shares none of its logic. Most
functions are exponential; callers keep n small. The helpers at the end
are small definitional checks the library itself has no use for, two
thin wrappers over library code that only the tests call, and the member
generator that certifies every step, which the library no longer needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations

from glpart import (
    CapError,
    Graph,
    Instance,
    MergeMap,
    Peo,
    components_within,
    compute_peo,
    enumerate_induced_c4,
    format_instance,
)
from glpart.c4 import C4Catalog, Cycle, _canonical
from glpart.generators import _ktree_edges_and_cliques
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


def bf_has_double_house(g: Graph) -> bool:
    pat = Graph.from_edges(7, DOUBLE_HOUSE_EDGES)
    return bf_contains_induced(g, pat) is not None


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
    return tuple(i for i, c in enumerate(catalog.cycles) if v in c)


def shared_vertices(catalog: C4Catalog) -> tuple[int, ...]:
    """Vertices lying on at least two catalogued cycles, ascending."""
    on_cycles = {v for c in catalog.cycles for v in c}
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
    return C4Catalog(tuple(sorted(seen.values())))


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
    membership = catalog.vertex_membership()
    shared = tuple(sorted(v for v, cs in membership.items() if len(cs) >= 2))
    m = len(catalog)
    index = {v: m + i for i, v in enumerate(shared)}
    parent = list(range(m + len(shared)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in shared:
        for ci in membership[v]:
            a, b = find(ci), find(index[v])
            if a == b:
                return C4IncidenceGraph(m, False)
            parent[a] = b
    return C4IncidenceGraph(m, True)


def identity_merge_map(n: int) -> MergeMap:
    """The merge map of a graph with nothing contracted."""
    return MergeMap(tuple(frozenset((v,)) for v in range(n)))


def save_instance(inst: Instance, path: str, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_instance(inst, comment))


def is_chordal(g: Graph) -> bool:
    if g.n == 0:
        return True
    return isinstance(compute_peo(g), Peo)


def find_hole_through(g: Graph, v: int) -> tuple[int, ...] | None:
    """Some hole containing vertex v, or None. Exact for that vertex."""
    for c in sorted(g.adj[v]):
        hole = _hole_at_edge(g.adj, v, c)
        if hole is not None:
            return hole
    return None


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
    edges, cliques = _ktree_edges_and_cliques(n - 4 * cycles, k, rng)
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
