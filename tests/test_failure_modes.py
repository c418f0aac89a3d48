"""Failure-injection and adversarial-input tests.

Production sketches meet hostile inputs: zero-length rows, saturating
weights, adversarial hash collisions, deletions past zero, corrupt
serialized blobs.  These tests pin down how the library behaves at
those edges -- failing loudly where the paper's model is violated and
degrading gracefully where it allows.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    SalsaCountMin,
    SalsaCountSketch,
    SalsaRow,
    TangoRow,
    ops,
)
from repro.core.serialize import dumps, loads
from repro.hashing import HashFamily, mix64
from repro.sketches import CountMinSketch


class TestSaturationAccounting:
    def test_salsa_saturation_is_counted_not_silent(self):
        row = SalsaRow(w=4, s=8, max_bits=16)
        row.add(0, 1 << 30)
        assert row.saturations == 1
        # Value clamped to the maximum representable, never wrapped.
        assert row.read(0) == (1 << 16) - 1

    def test_salsa_default_64bit_ceiling_is_practically_unreachable(self):
        row = SalsaRow(w=8, s=8, max_bits=64)
        row.add(0, (1 << 63) - 1)
        assert row.saturations == 0
        assert row.read(0) == (1 << 63) - 1

    def test_tango_saturation_counted(self):
        row = TangoRow(w=4, s=8, max_slots=1)
        row.add(2, 1_000)
        assert row.saturations == 1
        assert row.read(2) == 255

    def test_repeated_saturated_adds_stay_clamped(self):
        row = SalsaRow(w=4, s=8, max_bits=8)  # merging disabled
        for _ in range(5):
            row.add(1, 300)
        assert row.read(1) == 255


class TestAdversarialCollisions:
    def _colliding_items(self, fam, w, row, bucket, count):
        """Items all hashing to one bucket in one row (worst case)."""
        found = []
        candidate = 0
        while len(found) < count:
            if mix64(candidate ^ fam.seeds[row]) & (w - 1) == bucket:
                found.append(candidate)
            candidate += 1
        return found

    def test_single_row_collision_pileup_stays_overestimate(self):
        fam = HashFamily(1, seed=31)
        sk = SalsaCountMin(w=16, d=1, hash_family=fam)
        items = self._colliding_items(fam, 16, 0, 3, 40)
        truth = {}
        for x in items:
            for _ in range(50):
                sk.update(x)
            truth[x] = 50
        # All collide: estimate is the bucket total.
        for x in items:
            assert sk.query(x) >= truth[x]

    def test_multi_row_min_recovers_from_one_bad_row(self):
        fam = HashFamily(4, seed=32)
        sk = SalsaCountMin(w=256, d=4, hash_family=fam)
        bad_bucket_items = self._colliding_items(fam, 256, 0, 7, 10)
        for x in bad_bucket_items:
            sk.update(x)
        # The min over 4 rows shields any single-row pileup.
        assert sk.query(bad_bucket_items[0]) <= 10


class TestTurnstileEdges:
    def test_cms_deletion_below_zero_clamps(self):
        """A strict-turnstile violation must not corrupt neighbours."""
        sk = SalsaCountMin(w=64, d=2, merge="sum", seed=33)
        sk.update(1, 5)
        sk.update(1, -50)   # violates B subset-of A; clamps at 0
        assert sk.query(1) >= 0

    def test_cs_alternating_huge_updates(self):
        sk = SalsaCountSketch(w=64, d=5, seed=34)
        for _ in range(30):
            sk.update(9, 100_000)
            sk.update(9, -100_000)
        assert sk.query(9) == 0

    def test_cs_negative_heavy_hitter_merges_symmetrically(self):
        sk = SalsaCountSketch(w=64, d=5, seed=35)
        sk.update(9, -3_000_000)
        assert sk.query(9) == -3_000_000


class TestCorruptBlobs:
    @settings(max_examples=30)
    @given(st.binary(min_size=0, max_size=64))
    def test_random_bytes_never_crash_loader(self, blob):
        """loads() on garbage raises ValueError, never e.g. MemoryError
        or silent success."""
        try:
            loads(blob)
        except ValueError:
            pass

    def test_bit_flipped_header_rejected(self):
        blob = bytearray(dumps(SalsaCountMin(w=64, d=1, seed=1)))
        blob[0] ^= 0xFF
        with pytest.raises(ValueError):
            loads(bytes(blob))


class TestMergeMisuse:
    def test_merge_self_is_doubling(self):
        fam = HashFamily(2, seed=36)
        a = SalsaCountMin(w=256, d=2, hash_family=fam)
        a.update(5, 10)
        b = loads(dumps(a))
        ops.merge(a, b)
        assert a.query(5) >= 20

    def test_merge_after_heavy_merging_stays_consistent(self):
        fam = HashFamily(2, seed=37)
        rng = random.Random(37)
        a = SalsaCountMin(w=32, d=2, s=4, hash_family=fam)
        b = SalsaCountMin(w=32, d=2, s=4, hash_family=fam)
        truth = {}
        for _ in range(2_000):
            x = rng.randrange(50)
            (a if rng.random() < 0.5 else b).update(x)
            truth[x] = truth.get(x, 0) + 1
        ops.merge(a, b)
        assert all(a.query(x) >= f for x, f in truth.items())


class TestDegenerateShapes:
    def test_minimum_row(self):
        sk = SalsaCountMin(w=2, d=1, s=8, seed=38)
        sk.update(1, 60_000)
        assert sk.query(1) >= 60_000

    def test_single_row_sketch(self):
        sk = CountMinSketch(w=64, d=1, seed=39)
        sk.update(3, 7)
        assert sk.query(3) >= 7

    def test_whole_row_becomes_one_counter(self):
        row = SalsaRow(w=4, s=8, max_bits=64)
        row.add(0, 1 << 24)
        assert row.level_of(3) == 2   # all four slots merged
        assert row.read(2) == 1 << 24


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_interleaved_ops_fuzz(data):
    """Random interleavings of add / set_at_least / split / scale never
    break the layout partition invariant or produce negative unsigned
    values."""
    row = SalsaRow(w=16, s=4, merge="max")
    for _ in range(data.draw(st.integers(min_value=1, max_value=60))):
        op = data.draw(st.sampled_from(["add", "sal", "scale", "split"]))
        j = data.draw(st.integers(min_value=0, max_value=15))
        if op == "add":
            row.add(j, data.draw(st.integers(min_value=1, max_value=50)))
        elif op == "sal":
            row.set_at_least(j, data.draw(st.integers(min_value=0,
                                                      max_value=500)))
        elif op == "scale":
            row.scale_down_half()
        else:
            level, start = row.locate(j)
            if level > 0:
                row.try_split(start, level)
    total_slots = sum(1 << lvl for _s, lvl, _v in row.counters())
    assert total_slots == 16
    assert all(v >= 0 for _s, _l, v in row.counters())
