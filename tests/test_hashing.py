"""Tests for the hashing substrate: BobHash, mix64, and HashFamily."""

import collections

import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing import HashFamily, bobhash, mix64


class TestBobHash:
    def test_deterministic(self):
        assert bobhash(b"hello", 1) == bobhash(b"hello", 1)

    def test_seed_changes_output(self):
        assert bobhash(b"hello", 1) != bobhash(b"hello", 2)

    def test_key_changes_output(self):
        assert bobhash(b"hello", 1) != bobhash(b"world", 1)

    def test_empty_key(self):
        # lookup3 returns the unmixed initial c for empty input.
        assert bobhash(b"", 0) == 0xDEADBEEF

    def test_long_key_multiblock(self):
        key = bytes(range(64))
        assert bobhash(key, 7) == bobhash(key, 7)
        assert bobhash(key, 7) != bobhash(key[:-1] + b"\xff", 7)

    def test_32bit_range(self):
        for key in (b"", b"a", b"0123456789ab", bytes(100)):
            assert 0 <= bobhash(key, 123) < 2**32

    @settings(max_examples=100)
    @given(st.binary(max_size=40), st.integers(min_value=0, max_value=2**32 - 1))
    def test_stable_under_repetition(self, key, seed):
        assert bobhash(key, seed) == bobhash(key, seed)

    def test_tail_lengths_all_distinct(self):
        """Each tail length (1..12) hits a distinct code path; all work."""
        values = {bobhash(bytes(range(n)), 3) for n in range(1, 13)}
        assert len(values) == 12

    def test_avalanche_rough(self):
        """Flipping one input bit flips roughly half the output bits."""
        base = bobhash(b"\x00" * 8, 0)
        flipped = bobhash(b"\x01" + b"\x00" * 7, 0)
        diff = (base ^ flipped).bit_count()
        assert 4 <= diff <= 28


class TestMix64:
    def test_bijective_on_samples(self):
        seen = {mix64(i) for i in range(10_000)}
        assert len(seen) == 10_000

    def test_64bit_range(self):
        for i in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= mix64(i) < 2**64

    def test_avalanche_rough(self):
        diffs = [(mix64(i) ^ mix64(i ^ 1)).bit_count() for i in range(100)]
        assert 20 <= sum(diffs) / len(diffs) <= 44


class TestHashFamily:
    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            HashFamily(0)

    def test_deterministic_given_seed(self):
        a, b = HashFamily(4, seed=9), HashFamily(4, seed=9)
        assert a.same_functions(b)
        assert [a.index(i, 0, 1024) for i in range(50)] == [
            b.index(i, 0, 1024) for i in range(50)
        ]

    def test_seeds_differ_across_rows(self):
        fam = HashFamily(4, seed=1)
        idx = [fam.index(12345, r, 1 << 20) for r in range(4)]
        assert len(set(idx)) > 1

    def test_index_in_range(self):
        fam = HashFamily(3, seed=2)
        for item in range(200):
            for row in range(3):
                assert 0 <= fam.index(item, row, 64) < 64

    def test_sign_is_plus_minus_one(self):
        fam = HashFamily(2, seed=3)
        signs = {fam.sign(i, 0) for i in range(100)}
        assert signs == {1, -1}

    def test_sign_roughly_balanced(self):
        fam = HashFamily(1, seed=4)
        pos = sum(1 for i in range(4000) if fam.sign(i, 0) == 1)
        assert 1700 <= pos <= 2300

    def test_indexes_matches_index(self):
        fam = HashFamily(5, seed=5)
        assert fam.indexes(777, 256) == [fam.index(777, r, 256) for r in range(5)]

    def test_index_distribution_uniform(self):
        fam = HashFamily(1, seed=6)
        w = 16
        counts = collections.Counter(fam.index(i, 0, w) for i in range(16_000))
        for bucket in range(w):
            assert 800 <= counts[bucket] <= 1200

    def test_bytes_keys_supported(self):
        fam = HashFamily(2, seed=7)
        assert 0 <= fam.index(b"10.0.0.1:443", 0, 128) < 128
        assert fam.sign(b"flow", 1) in (1, -1)

    def test_different_seed_different_functions(self):
        assert not HashFamily(2, seed=1).same_functions(HashFamily(2, seed=2))

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2**62))
    def test_raw_stable(self, item):
        fam = HashFamily(2, seed=11)
        assert fam.raw(item, 0) == fam.raw(item, 0)
        assert fam.raw(item, 0) != fam.raw(item, 1)
