"""Instance generators: k-trees and class members with planted 4-cycles."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from glpart import (
    enumerate_induced_c4,
    generate_almost_chordal,
    generate_ktree,
    is_hh_i42_free,
    vertex_connectivity_at_least,
)

from bruteforce import bf_generate_almost_chordal, is_chordal


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
