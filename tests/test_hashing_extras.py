"""Tests for tabulation hashing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import TabulationFamily, TabulationHash

from answers import assert_answers


class TestTabulation:
    def test_deterministic(self):
        a, b = TabulationHash(seed=5), TabulationHash(seed=5)
        assert all(a(k) == b(k) for k in range(100))

    def test_seed_changes_function(self):
        a, b = TabulationHash(seed=5), TabulationHash(seed=6)
        assert any(a(k) != b(k) for k in range(10))

    def test_output_covers_64_bits(self):
        h = TabulationHash(seed=1)
        union = 0
        for k in range(200):
            union |= h(k)
        assert union.bit_length() > 56  # high bits get used

    def test_index_in_range(self):
        h = TabulationHash(seed=2)
        assert all(0 <= h.index(k, 64) < 64 for k in range(500))

    def test_sign_is_pm1(self):
        h = TabulationHash(seed=3)
        signs = {h.sign(k) for k in range(200)}
        assert signs == {+1, -1}

    def test_avalanche_single_byte(self):
        """Changing one key byte flips ~half the output bits on average
        (tabulation is 3-independent; avalanche follows from random
        tables)."""
        h = TabulationHash(seed=4)
        total = 0
        trials = 200
        for k in range(trials):
            flipped = h(k) ^ h(k ^ 0xFF)
            total += bin(flipped).count("1")
        assert 24 < total / trials < 40

    def test_family_rejects_bad_d(self):
        with pytest.raises(ValueError):
            TabulationFamily(d=0)

    def test_family_rows_independent(self):
        fam = TabulationFamily(d=3, seed=9)
        idx = fam.indexes(12345, 1 << 16)
        assert len(set(idx)) > 1  # rows hash differently

    def test_family_drop_in_for_sketches(self):
        """Sketches that hash through the family API accept a
        TabulationFamily (the ablation's swap).  CMS/CS inline the
        mixer for speed and keep their own family type."""
        from repro.sketches import NitroSketch

        sketch = NitroSketch(w=1 << 10, d=4, p=1.0,
                             hash_family=TabulationFamily(d=4, seed=11))
        for _ in range(100):
            sketch.update(77)
        assert sketch.query(77) == 100.0

    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_family_batch_doors_match_per_item(self, p):
        """NitroSketch's batch doors hash through ``raw_many`` and
        ``raw_matrix``; on a TabulationFamily they must reproduce the
        per-item walk exactly, with and without sampling."""
        from repro.sketches import NitroSketch

        rng = np.random.default_rng(31)
        items = rng.integers(-2**40, 2**40, 64)[rng.integers(0, 64, 900)]
        make = lambda: NitroSketch(
            w=64, d=5, p=p, seed=3, hash_family=TabulationFamily(5, seed=1))
        per_item, batched = make(), make()
        for x in items.tolist():
            per_item.update(x)
        for start in range(0, len(items), 128):
            batched.update_many(items[start:start + 128])
        assert np.array_equal(per_item._rows, batched._rows)
        probe = np.unique(items)
        assert_answers(batched, probe,
                       [per_item.query(x) for x in probe.tolist()])


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_tabulation_uint64(key):
    h = TabulationHash(seed=0)
    assert 0 <= h(key) < 2**64
