"""Instance generators: k-trees and class members with planted 4-cycles."""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from glpart import (
    Graph,
    Instance,
    PartitionRequest,
    WeightedGraph,
    cli,
    generate_almost_chordal,
    generate_ktree,
    is_hh_i42_free,
    vertex_connectivity_at_least,
)
from glpart.c4 import enumerate_induced_c4
from glpart.generators import (
    _clique,
    _draw,
    _droppers,
    draw_request,
    instance_text,
    later_neighbours,
    request_rng,
)
from glpart.instances import parse_instance

from bruteforce import (
    bf_compose_demands,
    bf_generate_almost_chordal,
    bf_ktree_edges_and_cliques,
    bf_weights,
    format_instance,
    is_chordal,
)


def kappa_exactly(g, k: int) -> bool:
    return bool(vertex_connectivity_at_least(g, k)) and not vertex_connectivity_at_least(
        g, k + 1
    )


class TestKtree:
    def test_smallest_is_complete(self):
        for k in (2, 3, 4):
            g = generate_ktree(k + 1, k, 0)
            assert g.is_complete()

    def test_edge_count(self):
        # a k-tree on n vertices has k(k+1)/2 + (n-k-1)k edges
        for n, k, seed in [(10, 2, 1), (14, 3, 2), (20, 4, 3)]:
            g = generate_ktree(n, k, seed)
            assert g.edge_count() == k * (k + 1) // 2 + (n - k - 1) * k

    def test_seeded_reproducible(self):
        assert generate_ktree(17, 3, 42) == generate_ktree(17, 3, 42)
        assert generate_ktree(17, 3, 42) != generate_ktree(17, 3, 43)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            generate_ktree(3, 3, 0)
        with pytest.raises(ValueError):
            generate_ktree(5, 0, 0)

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=25),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_chordal_and_k_connected(self, k, extra, seed):
        n = k + 1 + extra
        g = generate_ktree(n, k, seed)
        assert is_chordal(g)
        want = min(k, n - 1)
        assert kappa_exactly(g, want)


def catalog_size(g) -> int:
    return len(enumerate_induced_c4(g))


def member_sweep(count: int = 240):
    """Seeded (n, k, cycles, seed) requests: k 2-5, 0-12 cycles, 0-60 spare."""
    rng = random.Random(77)
    out = []
    for seed in range(count):
        k, cycles = rng.randint(2, 5), rng.randint(0, 12)
        out.append((k + 1 + 4 * cycles + rng.randint(0, 60), k, cycles, seed))
    return out


SWEEP = member_sweep()


class TestAlmostChordalGenerator:
    def test_exact_cycle_count(self):
        for k in (2, 3, 4, 5):
            assert catalog_size(generate_almost_chordal(30, k, 3, seed=k)) == 3

    def test_membership_and_connectivity(self):
        for seed in range(6):
            g = generate_almost_chordal(26, 3, 2, seed=seed)
            assert g.n == 26
            assert is_hh_i42_free(g)
            assert not is_chordal(g)
            assert kappa_exactly(g, 3)

    def test_zero_cycles_gives_ktree(self):
        g = generate_almost_chordal(15, 3, 0, seed=7)
        assert is_chordal(g)
        assert catalog_size(g) == 0

    def test_seeded_reproducible(self):
        a = generate_almost_chordal(24, 2, 3, seed=5)
        b = generate_almost_chordal(24, 2, 3, seed=5)
        assert a == b

    def test_rejects_undersized(self):
        # 4 vertices per planted cycle must fit above the k+1 base clique
        with pytest.raises(ValueError):
            generate_almost_chordal(8, 3, 2, seed=0)

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            generate_almost_chordal(20, 1, 1, seed=0)

    def test_rejects_negative_cycles(self):
        with pytest.raises(ValueError) as err:
            generate_almost_chordal(20, 3, -1, seed=0)
        assert str(err.value) == "cycles must be non-negative"

    def test_high_k_instances(self):
        g = generate_almost_chordal(40, 5, 4, seed=9)
        assert catalog_size(g) == 4
        assert is_hh_i42_free(g)
        assert kappa_exactly(g, 5)

    def test_matches_certifying_reference(self):
        for n, k, cycles, seed in SWEEP:
            assert generate_almost_chordal(n, k, cycles, seed) == (
                bf_generate_almost_chordal(n, k, cycles, seed)
            ), (n, k, cycles, seed)

    def test_members_by_construction(self):
        for n, k, cycles, seed in SWEEP:
            g = generate_almost_chordal(n, k, cycles, seed)
            assert g.n == n
            assert is_hh_i42_free(g), (n, k, cycles, seed)
            assert catalog_size(g) == cycles, (n, k, cycles, seed)
            assert kappa_exactly(g, k), (n, k, cycles, seed)


# k-trees for k = 1..6 and n up to 2,000, and members for k = 2..5 whose
# gadgets crowd the base: up to (n - k - 1) // 4 rings at n = 200 and 1,000
KTREES = [(n, k, seed) for k in range(1, 7)
          for n, seed in [(k + 1, 0), (k + 2, 1), (37, 2), (400, 3), (2000, 4)]]
MEMBERS = [(n, k, cycles, seed) for k in range(2, 6)
           for n, seed in [(200, k), (1000, 10 + k)]
           for cycles in (1, (n - k - 1) // 8, (n - k - 1) // 4)]


class TestEdgeOrder:
    """The order of each vertex's neighbours: ``generate``'s edge lines
    list them as ``later_neighbours`` gives them, and the graphs' neighbour
    sets are filled from those lists as the file's reader fills them."""

    def test_later_neighbours_give_graph_edges(self):
        # each vertex's list, flattened in vertex order, is ``Graph.edges()``
        # of the graph the same draws build
        cases = [(later_neighbours(n, k, 0, seed), generate_ktree(n, k, seed))
                 for n, k, seed in KTREES]
        cases += [(later_neighbours(*c), generate_almost_chordal(*c)) for c in MEMBERS]
        for later, g in cases:
            assert len(later) == g.n
            assert [(u, v) for u, vs in enumerate(later) for v in vs] == g.edges()

    def test_graph_iterates_as_its_file_parses(self):
        # the library graph and the graph read back from ``generate``'s text
        # for the same arguments list every neighbour set in the same order
        cases = [(n, k, 0, seed) for n, k, seed in KTREES if k >= 2] + MEMBERS
        differ = []
        for n, k, cycles, seed in cases:
            if cycles:
                g = generate_almost_chordal(n, k, cycles, seed)
            else:
                g = generate_ktree(n, k, seed)
            parsed = parse_instance(instance_text(n, k, cycles, seed, 1, 1)).graph
            if list(map(list, g.adj)) != list(map(list, parsed.adj)):
                differ.append((n, k, cycles, seed))
        assert len(cases) == 49
        assert differ == []

    def test_generate_builds_no_graph(self, monkeypatch):
        calls = []

        def spy(name, fn):
            def counted(*args):
                calls.append(name)
                return fn(*args)
            return counted

        monkeypatch.setattr(Graph, "from_edges",
                            classmethod(spy("from_edges", Graph.from_edges.__func__)))
        monkeypatch.setattr(Graph, "edges", spy("edges", Graph.edges))
        for flags in (["--n", "300", "--k", "3", "--max-weight", "9"],
                      ["--n", "300", "--k", "4", "--cycles", "20"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["generate", *flags, "--seed", "5"]) == 0, flags
        assert calls == []


def reference_request(rng, weights, k: int, floor: int) -> PartitionRequest:
    """``draw_request`` by the references: the same terminal draw, then
    ``bf_compose_demands``' slot-by-slot walk."""
    terminals = tuple(sorted(rng.sample(range(len(weights)), k)))
    floors = [max(weights[t], floor) for t in terminals]
    return PartitionRequest(
        terminals, tuple(bf_compose_demands(rng, k, sum(weights), floors)))


class TestSameDraws:
    """The clique lookup against the per-clique list it replaced, and
    ``generate``'s request against the per-vertex ``randint`` weights and the
    slot-by-slot composition of ``bruteforce``: equal values and equal
    generator state afterwards."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_ktree_matches_clique_list(self, k):
        for n, seed in [(k + 1, 0), (k + 2, 1), (37, 2), (400, 3), (2000, 4)]:
            rng, ref = random.Random(seed), random.Random(seed)
            bases, anchors = _draw(n, k, 0, rng)
            want, cliques = bf_ktree_edges_and_cliques(n, k, ref)
            assert rng.getstate() == ref.getstate(), (n, k)
            assert anchors == []
            drop = _droppers(k)
            got = [_clique(bases, drop, j) for j in range(len(cliques))]
            assert got == cliques, (n, k)
            later = later_neighbours(n, k, 0, seed)
            edges = [(u, v) for u, vs in enumerate(later) for v in vs]
            assert edges == sorted(want), (n, k)

    def test_weights_match_randint(self):
        # exact past 2**53, where ``floor(random() * m)`` is not; at 2**64 + 1
        # the demands' slots also pass ``sys.maxsize``
        for n, top, seed in [(3, 2, 0), (100, 9, 1), (1000, 1000, 2), (300, 10**9, 3),
                             (200, 2**64 + 1, 4)]:
            got = parse_instance(instance_text(n, 2, 0, seed, top, 1)).wgraph.weights
            assert got == bf_weights(request_rng(seed), n, top), top

    # small k, and k up to 300
    @pytest.mark.parametrize("k", [*range(2, 9), 48, 49, 128, 255, 256, 300])
    def test_compose_matches_per_unit_loop(self, k):
        # every vertex weighs w and ``floor`` is 1, so each floor is w; one
        # more vertex than terminals leaves a slack of exactly w, and k
        # vertices a slack of 0
        for slack, seed in [(0, 0), (1, 1), (500, 2), (10**9, 3)]:
            weights = (max(slack, 1),) * (k + (slack > 0))
            rng = random.Random(seed)
            req = draw_request(rng, weights, k, 1)
            floors = [weights[t] for t in req.terminals]
            assert all(d >= f for d, f in zip(req.demands, floors)), (k, slack)
            assert sum(req.demands) == sum(weights), (k, slack)
            if slack <= 500:
                ref = random.Random(seed)
                assert req == reference_request(ref, weights, k, 1), (k, slack)
                assert rng.getstate() == ref.getstate(), (k, slack)
        # weights 1..2k and a floor of 3, so floors differ part to part
        weights = tuple(range(1, 2 * k + 1))
        rng, ref = random.Random(k), random.Random(k)
        assert draw_request(rng, weights, k, 3) == reference_request(ref, weights, k, 3)
        assert rng.getstate() == ref.getstate()

    def test_split_reaches_every_composition(self):
        # 4 units above three floors of 4 split 15 ways, C(4 + 2, 2), and a
        # uniform split draws none of them less than half as often as 1 in
        # 15 (one unit at a time would give 4, 0, 0 about 1 time in 81)
        seen = Counter()
        for seed in range(1000):
            req = draw_request(random.Random(seed), (4,) * 4, 3, 1)
            seen[tuple(d - 4 for d in req.demands)] += 1
        assert len(seen) == 15
        assert all(min(c) >= 0 and sum(c) == 4 for c in seen)
        assert min(seen.values()) > 1000 / 15 / 2

    def test_generate_calls_no_per_unit_randrange(self, monkeypatch):
        # the graph: a k-tree makes no randrange or randint call, and a
        # member one anchor draw per planted cycle
        graph_calls = []
        for name in ("randrange", "randint"):
            original = getattr(random.Random, name)

            def spy(self, *args, _name=name, _fn=original):
                graph_calls.append(_name)
                return _fn(self, *args)

            monkeypatch.setattr(random.Random, name, spy)
        later_neighbours(300, 3, 0, 3)
        assert graph_calls == []
        later_neighbours(300, 3, 5, 3)
        assert graph_calls == ["randrange"] * 5
        monkeypatch.undo()
        # the request: ``draw_request`` makes the same calls on its generator
        # for a total weight of 10**3 as for 10**9, and O(k) raw draws in them
        class Recording:
            def __init__(self, seed):
                self.rng, self.calls = random.Random(seed), []

            def __getattr__(self, name):
                self.calls.append(name)
                return getattr(self.rng, name)

        words = []
        original = random.Random.getrandbits

        def spy(self, bits):
            words.append(bits)
            return original(self, bits)

        monkeypatch.setattr(random.Random, "getrandbits", spy)
        for k in (3, 8):
            calls = []
            for w in (100, 10**8):
                rng = Recording(k)
                words.clear()
                req = draw_request(rng, (w,) * 10, k, 1)
                assert sum(req.demands) == 10 * w
                assert len(words) <= 4 * k, (k, w)
                calls.append(rng.calls)
            assert calls[0] == calls[1] == ["sample"] + ["randrange"] * (k - 1), k
        monkeypatch.undo()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["generate", "--n", "50", "--k", "3",
                             "--max-weight", "1000000000", "--seed", "3"]) == 0
        inst = parse_instance(out.getvalue())
        assert sum(inst.request.demands) == sum(inst.wgraph.weights)
        assert max(inst.wgraph.weights) > 2**16

    def test_request_stream_is_apart_from_the_graphs(self):
        # k = 3: the first base index j is drawn below 4, and the first
        # weight w from 1..9. Had both come from one 32-bit word, every seed
        # whose first base draw is accepted at once would give
        # j == (w - 1) >> 1; drawn apart, about a quarter do.
        seeds = same = 0
        for seed in range(2000):
            if random.Random(seed).getrandbits(3) >= 4:
                continue
            inst = parse_instance(instance_text(5, 3, 0, seed, 9, 1))
            # vertex 4 joined clique j, which is 0..3 less 3 - j
            j = 3 - min(set(range(4)) - inst.graph.adj[4])
            seeds += 1
            same += j == (inst.wgraph.weights[0] - 1) >> 1
        assert seeds == 1040
        assert same < seeds / 2

    @pytest.mark.parametrize("n, k, cycles, max_weight, floor, seed", [
        (3, 2, 0, 1, 1, 0),
        (60, 2, 0, 9, 10, 1),
        (500, 5, 0, 300, 1, 2),
        (41, 3, 6, 1, 2, 3),
        (90, 4, 4, 7, 10, 4),
        (2000, 3, 0, 9, 1, 5),
        (1000, 3, 60, 1, 10, 6),
    ])
    def test_generate_matches_reference(self, n, k, cycles, max_weight, floor, seed):
        if cycles:
            g = bf_generate_almost_chordal(n, k, cycles, seed)
        else:
            g = Graph.from_edges(n, bf_ktree_edges_and_cliques(n, k, random.Random(seed))[0])
        rng = request_rng(seed)
        weights = bf_weights(rng, n, max_weight) if max_weight > 1 else (1,) * n
        request = reference_request(rng, weights, k, floor)
        want = format_instance(Instance(WeightedGraph(g, weights), request))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main([
                "generate", "--n", str(n), "--k", str(k), "--cycles", str(cycles),
                "--max-weight", str(max_weight), "--min-demand", str(floor),
                "--seed", str(seed),
            ]) == 0
        assert out.getvalue().split("\n", 1)[1] == want
