"""Unit tests for utils: rng, disjoint set, validation."""

import random

import pytest

from repro.errors import InvalidSignError, InvalidWeightError
from repro.utils.disjoint_set import DisjointSet
from repro.utils.rng import derive_seed, spawn_rng
from repro.utils.validation import (
    check_probability,
    check_sign_value,
    check_weight,
)


class TestSpawnRng:
    def test_int_seed_is_deterministic(self):
        assert spawn_rng(42).random() == spawn_rng(42).random()

    def test_namespace_decorrelates_streams(self):
        assert spawn_rng(42, "a").random() != spawn_rng(42, "b").random()

    def test_namespace_is_stable(self):
        assert spawn_rng(42, "x").random() == spawn_rng(42, "x").random()

    def test_parent_random_spawns_child(self):
        parent = random.Random(1)
        child = spawn_rng(parent)
        assert isinstance(child, random.Random)
        # Parent remains usable and its state advanced.
        parent.random()

    def test_none_gives_fresh_rng(self):
        assert isinstance(spawn_rng(None), random.Random)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            spawn_rng("seed")  # type: ignore[arg-type]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_labels_matter(self):
        assert derive_seed(7, "a", 1) != derive_seed(7, "a", 2)

    def test_base_seed_matters(self):
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_known_collision_of_old_mixing_resolved(self):
        # Regression: the crc32 ^ (seed & 0xFFFFFFFF) ^ ((seed >> 32) << 7)
        # scheme mapped these two distinct 56-bit base seeds to the very
        # same child seed (both gave 3144622054 for labels ("trial", 0)),
        # i.e. identical trial streams. The full-width digest must keep
        # them apart.
        s1, s2 = 6457330172832862, 8435469185685416
        assert derive_seed(s1, "trial", 0) != derive_seed(s2, "trial", 0)

    def test_negative_seeds_stay_in_range(self):
        # The old mixing produced negative child seeds for negative base
        # seeds (arithmetic shift), leaking sign into downstream streams.
        for seed in (-1, -7, -(2**40), -(2**63)):
            child = derive_seed(seed, "a")
            assert 0 <= child < 2**64

    def test_high_seed_bits_decorrelate(self):
        # Seeds differing only above bit 32 must yield distinct streams.
        children = {derive_seed(7 + (i << 32), "x") for i in range(256)}
        assert len(children) == 256

    def test_cross_platform_stable_value(self):
        # blake2b over repr is platform-independent; pin one value so an
        # accidental algorithm change cannot slip through silently.
        assert derive_seed(7, "a", 1) == 8946315620067322579


class TestDisjointSet:
    def test_singletons(self):
        ds = DisjointSet([1, 2, 3])
        assert len(ds) == 3
        assert not ds.connected(1, 2)

    def test_union_merges(self):
        ds = DisjointSet()
        assert ds.union(1, 2)
        assert ds.connected(1, 2)
        assert len(ds) == 1 + 0  # both created lazily, merged into one set

    def test_union_idempotent(self):
        ds = DisjointSet()
        ds.union(1, 2)
        assert not ds.union(2, 1)

    def test_transitive_connectivity(self):
        ds = DisjointSet()
        ds.union(1, 2)
        ds.union(2, 3)
        assert ds.connected(1, 3)

    def test_groups_partition(self):
        ds = DisjointSet(range(5))
        ds.union(0, 1)
        ds.union(2, 3)
        groups = sorted(sorted(g) for g in ds.groups())
        assert groups == [[0, 1], [2, 3], [4]]

    def test_contains_and_iter(self):
        ds = DisjointSet([1])
        assert 1 in ds
        assert 2 not in ds
        ds.find(2)  # lazily adds
        assert set(ds) == {1, 2}

    def test_len_counts_sets(self):
        ds = DisjointSet(range(4))
        ds.union(0, 1)
        assert len(ds) == 3


class TestValidators:
    def test_check_weight_accepts_bounds(self):
        assert check_weight(0.0) == 0.0
        assert check_weight(1.0) == 1.0

    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan"), "x", None])
    def test_check_weight_rejects(self, bad):
        with pytest.raises((InvalidWeightError, ValueError)):
            check_weight(bad)

    def test_check_probability(self):
        assert check_probability(0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability(1.5)

    def test_check_sign_value(self):
        assert check_sign_value(1) == 1
        assert check_sign_value(-1) == -1
        with pytest.raises(InvalidSignError):
            check_sign_value(0)

    @pytest.mark.parametrize("check", [check_probability])
    def test_past_float_range_is_a_value_error(self, check):
        with pytest.raises(ValueError, match="real number"):
            check(10**400)
