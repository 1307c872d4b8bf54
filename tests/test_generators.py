"""Instance generators: k-trees and class members with planted 4-cycles."""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from itertools import chain

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
    generators,
    is_hh_i42_free,
    vertex_connectivity_at_least,
)
from glpart.c4 import enumerate_induced_c4
from glpart.generators import (
    _CHUNK,
    _COUNT_PASSES,
    _clique,
    _compose_demands,
    _draw,
    _draws_below,
    _droppers,
    instance_text,
    later_neighbours,
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
ADJ_ORDER_SHA256 = "242f2047d5437f37a0263fe78c12262a1796bcf658f1d8262faa09329a8c6d75"


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

    def test_neighbour_order_is_pinned(self):
        # ``list(adj[v])`` for every v: a frozenset iterates in an order set
        # by how its elements went in, and witnesses read that order
        digest = hashlib.sha256()
        for n, k, seed in KTREES:
            g = generate_ktree(n, k, seed)
            digest.update(f"{[list(s) for s in g.adj]}\n".encode())
        for n, k, cycles, seed in MEMBERS:
            g = generate_almost_chordal(n, k, cycles, seed)
            digest.update(f"{[list(s) for s in g.adj]}\n".encode())
        assert digest.hexdigest() == ADJ_ORDER_SHA256


class TestSameDraws:
    """The clique lookup and the chunked draws against the per-clique list
    and the per-unit ``randrange``/``randint`` loops they replaced: equal
    values and equal generator state afterwards."""

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

    def test_draws_match_randrange(self):
        cases = [(m, seed, count) for m in [*range(1, 301), 2**31, 2**31 + 1, 10**9,
                                            2**64 - 1]
                 for seed, count in [(0, 1), (1, 2), (2, 57)]]
        # more than one chunk, on both sides of the one-byte limit m = 255
        cases += [(m, 3, _CHUNK + 3) for m in (1, 2, 3, 9, 128, 255, 256, 257)]
        for m, seed, count in cases:
            rng, ref = random.Random(seed), random.Random(seed)
            got = list(chain.from_iterable(_draws_below(rng, m, count)))
            assert got == [ref.randrange(m) for _ in range(count)], (m, seed, count)
            assert rng.getstate() == ref.getstate(), (m, seed, count)

    def test_weights_match_randint(self):
        for n, top, seed in [(1, 2, 0), (100, 9, 1), (1000, 1000, 2), (300, 10**9, 3),
                             (2000, 255, 4), (2000, 256, 5)]:
            rng, ref = random.Random(seed), random.Random(seed)
            got = tuple(chain.from_iterable(_draws_below(rng, top, n, 1)))
            assert got == bf_weights(ref, n, top), top
            assert rng.getstate() == ref.getstate(), top

    # k = 2..8 and _COUNT_PASSES count bytes with bytes.count; the k just
    # above it and up to 255 count bytes with a Counter; 256 and 300 count
    # per-call draws with a Counter
    @pytest.mark.parametrize(
        "k", [*range(2, 9), _COUNT_PASSES, _COUNT_PASSES + 1, 128, 255, 256, 300]
    )
    def test_compose_matches_per_unit_loop(self, k):
        # ``extra`` units above the floors: none, one, a part chunk, more
        # than one chunk, and a total of about 10**5
        for extra, floor, seed in [
            (0, 1, 0), (1, 1, 1), (500, 3, 2), (_CHUNK + 5, 1, 3), (10**5 - 20 * k, 10, 4),
        ]:
            floors = [floor + i for i in range(k)]
            total = sum(floors) + extra
            rng, ref = random.Random(seed), random.Random(seed)
            got = _compose_demands(rng, k, total, floors)
            assert got == bf_compose_demands(ref, k, total, floors), (k, extra)
            assert rng.getstate() == ref.getstate(), (k, extra)

    def test_compose_chunks_stay_under_the_cap(self, monkeypatch):
        # k = 3 takes the byte path, one ``getrandbits(32 * c)`` call per
        # chunk of c raw draws, so no call may ask for more than
        # 32 * _CHUNK bits
        asked = []

        def spy(self, bits):
            asked.append(bits)
            return original(self, bits)

        original = random.Random.getrandbits
        monkeypatch.setattr(random.Random, "getrandbits", spy)
        demands = _compose_demands(random.Random(5), 3, 3 * _CHUNK + 7, [1, 1, 1])
        assert sum(demands) == 3 * _CHUNK + 7
        assert len(asked) > 3
        assert max(asked) == 32 * _CHUNK

    def test_compose_per_call_chunks_stay_under_the_cap(self, monkeypatch):
        # k = 256 takes the per-call path, whose chunk of c raw draws is
        # ``repeat(bits, c)``, so no chunk may ask for more than _CHUNK
        asked = []

        def spy(value, times):
            asked.append(times)
            return original(value, times)

        original = generators.repeat
        monkeypatch.setattr(generators, "repeat", spy)
        total = 3 * _CHUNK + 7 + 256
        demands = _compose_demands(random.Random(5), 256, total, [1] * 256)
        assert sum(demands) == total
        assert len(asked) > 3
        assert max(asked) == _CHUNK

    def test_generate_calls_no_per_unit_randrange(self, monkeypatch):
        calls = []
        for name in ("randrange", "randint"):
            original = getattr(random.Random, name)

            def spy(self, *args, _name=name, _fn=original):
                calls.append(_name)
                return _fn(self, *args)

            monkeypatch.setattr(random.Random, name, spy)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["generate", "--n", "300", "--k", "3",
                             "--max-weight", "50", "--seed", "3"]) == 0
            assert calls == []
            assert cli.main(["generate", "--n", "300", "--k", "3", "--cycles", "5",
                             "--max-weight", "50", "--seed", "3"]) == 0
        # one anchor draw per planted cycle
        assert calls == ["randrange"] * 5

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
        rng = random.Random(seed)
        weights = bf_weights(rng, n, max_weight) if max_weight > 1 else (1,) * n
        terminals = tuple(sorted(rng.sample(range(n), k)))
        floors = [max(weights[t], floor) for t in terminals]
        demands = tuple(bf_compose_demands(rng, k, sum(weights), floors))
        want = format_instance(
            Instance(WeightedGraph(g, weights), PartitionRequest(terminals, demands))
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main([
                "generate", "--n", str(n), "--k", str(k), "--cycles", str(cycles),
                "--max-weight", str(max_weight), "--min-demand", str(floor),
                "--seed", str(seed),
            ]) == 0
        assert out.getvalue().split("\n", 1)[1] == want
