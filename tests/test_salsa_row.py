"""Tests for SalsaRow: merging counters over bit-packed storage."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SalsaRow, TangoRow

from reference_rows import build


class TestConstruction:
    def test_rejects_bad_w(self):
        with pytest.raises(ValueError):
            SalsaRow(w=3)

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError):
            SalsaRow(w=8, s=3)
        with pytest.raises(ValueError):
            SalsaRow(w=8, s=128)

    def test_rejects_max_bits_below_s(self):
        with pytest.raises(ValueError):
            SalsaRow(w=8, s=8, max_bits=4)

    def test_rejects_bad_merge(self):
        with pytest.raises(ValueError):
            SalsaRow(w=8, merge="average")

    def test_signed_requires_sum(self):
        with pytest.raises(ValueError):
            SalsaRow(w=8, signed=True, merge="max")

    def test_rejects_bad_encoding(self):
        with pytest.raises(ValueError):
            SalsaRow(w=8, encoding="huffman")

    def test_max_level_from_max_bits(self):
        assert SalsaRow(w=64, s=8, max_bits=64).max_level == 3
        assert SalsaRow(w=64, s=8, max_bits=32).max_level == 2
        assert SalsaRow(w=64, s=8, max_bits=8).max_level == 0

    def test_max_level_limited_by_row_width(self):
        assert SalsaRow(w=4, s=8, max_bits=64).max_level == 2

    def test_memory_accounting(self):
        row = SalsaRow(w=64, s=8)
        assert row.memory_bits == 64 * 8 + 64  # payload + 1 bit/counter


class TestUnsignedCounting:
    def test_counts_within_s_bits(self):
        row = SalsaRow(w=8, s=8)
        for _ in range(255):
            row.add(3, 1)
        assert row.read(3) == 255
        assert row.level_of(3) == 0

    def test_overflow_merges_once(self):
        row = SalsaRow(w=8, s=8, merge="max")
        row.add(6, 255)
        assert row.add(6, 1) == 256
        assert row.level_of(6) == 1
        assert row.read(7) == 256  # neighbour shares the counter now

    def test_counts_to_max_bits(self):
        row = SalsaRow(w=8, s=8, max_bits=64)
        row.add(0, (1 << 40))
        assert row.read(0) == 1 << 40
        assert row.level_of(0) == 3

    def test_saturates_at_max_bits(self):
        row = SalsaRow(w=4, s=8, max_bits=16)
        row.add(0, 1 << 20)
        assert row.read(0) == (1 << 16) - 1
        assert row.saturations == 1

    def test_weighted_add_can_merge_multiple_levels(self):
        row = SalsaRow(w=8, s=8)
        row.add(5, 100_000)
        assert row.read(5) == 100_000
        assert row.level_of(5) == 2  # needs 17 bits -> 32-bit counter

    def test_negative_add_clamps_to_zero(self):
        row = SalsaRow(w=8, s=8)
        row.add(2, 5)
        assert row.add(2, -9) == 0

    def test_max_merge_takes_max(self):
        row = SalsaRow(w=8, s=8, merge="max")
        row.add(6, 200)
        row.add(7, 255)
        row.add(7, 1)  # overflow: <6,7> merges, max(256, 200) = 256
        assert row.read(6) == 256

    def test_sum_merge_takes_sum(self):
        row = SalsaRow(w=8, s=8, merge="sum")
        row.add(6, 200)
        row.add(7, 255)
        row.add(7, 1)  # overflow: <6,7> merges, 256 + 200 = 456
        assert row.read(6) == 456

    def test_merge_event_counter(self):
        row = SalsaRow(w=8, s=8)
        row.add(0, 300)
        assert row.merge_events == 1


class TestFigure2Examples:
    """The two worked examples of Fig 2 (s=8, slots 0..7)."""

    def _setup(self, merge):
        row = SalsaRow(w=8, s=8, merge=merge)
        # Initial state: [0, 255, 3, 0, 65533(<4,5>), 95, 11]
        row.add(1, 255)
        row.add(2, 3)
        row.add(4, 250)
        row.add(4, 65283)       # merges <4,5> to 65533
        assert row.read(4) == 65533 and row.level_of(4) == 1
        row.add(6, 95)
        row.add(7, 11)
        return row

    def test_sum_merging(self):
        row = self._setup("sum")
        # <y,5> arrives, h(y)=5 -> +5 into <4,5>: 65538 overflows 16 bits;
        # sum-merge with <6,7>: 65538 + 95 + 11 = 65644... the paper
        # shows 65664 after <x,3> lands in counter 1 as well; recompute:
        row.add(5, 5)
        assert row.level_of(4) == 2
        assert row.read(4) == 65533 + 5 + 95 + 11
        row.add(1, 3)
        assert row.read(1) == 258
        assert row.level_of(1) == 1
        assert row.read(0) == 258

    def test_max_merging(self):
        row = self._setup("max")
        row.add(5, 5)
        # Max-merge: max(65538, 95, 11) = 65538 (the paper's Fig 2b).
        assert row.read(4) == 65538
        assert row.level_of(4) == 2
        row.add(1, 3)
        assert row.read(1) == 258


class TestSignedRows:
    def test_signed_roundtrip(self):
        row = SalsaRow(w=8, s=8, merge="sum", signed=True)
        row.add(3, -100)
        assert row.read(3) == -100
        row.add(3, 30)
        assert row.read(3) == -70

    def test_sign_magnitude_range(self):
        """s-bit sign-magnitude holds |v| <= 2^(s-1) - 1 = 127."""
        row = SalsaRow(w=8, s=8, merge="sum", signed=True)
        row.add(3, 127)
        assert row.level_of(3) == 0
        row.add(3, 1)  # |128| > 127: overflow, merge
        assert row.level_of(3) == 1
        assert row.read(3) == 128

    def test_negative_overflow_symmetric(self):
        """Overflow at -128 mirrors +128 (the unbiasedness mechanism)."""
        row = SalsaRow(w=8, s=8, merge="sum", signed=True)
        row.add(3, -128)
        assert row.level_of(3) == 1
        assert row.read(3) == -128

    def test_signed_merge_sums_signed_values(self):
        row = SalsaRow(w=8, s=8, merge="sum", signed=True)
        row.add(6, -50)
        row.add(7, 127)
        row.add(7, 1)   # merge <6,7>: 128 + (-50) = 78
        assert row.read(6) == 78

    def test_signed_saturation_clamps_magnitude(self):
        row = SalsaRow(w=4, s=8, max_bits=8, merge="sum", signed=True)
        row.add(0, -1000)
        assert row.read(0) == -127


class TestSetAtLeast:
    def test_noop_when_already_large(self):
        row = SalsaRow(w=8, s=8, merge="max")
        row.add(2, 50)
        row.set_at_least(2, 20)
        assert row.read(2) == 50

    def test_raises_value(self):
        row = SalsaRow(w=8, s=8, merge="max")
        assert row.set_at_least(2, 40) == 40

    def test_merges_when_target_overflows(self):
        row = SalsaRow(w=8, s=8, merge="max")
        row.set_at_least(2, 300)
        assert row.read(2) == 300
        assert row.level_of(2) == 1

    def test_requires_max_merge(self):
        row = SalsaRow(w=8, s=8, merge="sum")
        with pytest.raises(ValueError):
            row.set_at_least(0, 5)


class TestBulkOperations:
    def test_counters_iteration(self):
        row = SalsaRow(w=8, s=8)
        row.add(0, 7)
        row.add(6, 300)
        assert list(row.counters()) == [
            (0, 0, 7), (1, 0, 0), (2, 0, 0), (3, 0, 0),
            (4, 0, 0), (5, 0, 0), (6, 1, 300),
        ]

    def test_ensure_level(self):
        row = SalsaRow(w=8, s=8, merge="max")
        row.add(4, 10)
        row.add(5, 20)
        level, start = row.ensure_level(4, 1)
        assert (level, start) == (1, 4)
        assert row.read(4) == 20  # max of constituents

    def test_scale_down_deterministic(self):
        row = SalsaRow(w=8, s=8)
        row.add(0, 9)
        row.add(3, 301)
        row.scale_down_half()
        assert row.read(0) == 4
        assert row.read(3) == 150

    def test_scale_down_probabilistic_is_binomial_like(self):
        rng = random.Random(1)
        totals = []
        for _ in range(60):
            row = SalsaRow(w=4, s=8)
            row.add(0, 40)
            row.scale_down_half(rng)
            totals.append(row.read(0))
        mean = sum(totals) / len(totals)
        assert 16 <= mean <= 24  # around 20

    def test_try_split(self):
        row = SalsaRow(w=8, s=8, merge="max")
        row.add(4, 300)                 # 16-bit counter <4,5>
        row.scale_down_half()           # now 150, fits 8 bits
        assert row.try_split(4, 1)
        assert row.level_of(4) == 0 and row.level_of(5) == 0
        assert row.read(4) == 150 and row.read(5) == 150

    def test_try_split_refuses_when_value_too_big(self):
        row = SalsaRow(w=8, s=8, merge="max")
        row.add(4, 300)
        assert not row.try_split(4, 1)
        assert row.level_of(4) == 1

    def test_try_split_requires_max(self):
        row = SalsaRow(w=8, s=8, merge="sum")
        with pytest.raises(ValueError):
            row.try_split(0, 1)

    def test_zero_slot_accounting(self):
        row = SalsaRow(w=8, s=8)
        row.add(0, 1)
        row.add(6, 300)   # merges <6,7>
        zeros, unmerged = row.zero_base_slots_unmerged()
        assert (zeros, unmerged) == (5, 6)
        assert row.merged_subcounter_slack() == 1  # one 2-slot counter

    def test_copy_independent(self):
        row = SalsaRow(w=8, s=8)
        row.add(0, 300)
        cp = row.copy()
        cp.add(4, 5)
        assert row.read(4) == 0
        assert cp.read(0) == 300


class TestCompactEncodingRow:
    def test_same_values_as_simple(self):
        simple = SalsaRow(w=32, s=8, encoding="simple")
        compact = SalsaRow(w=32, s=8, encoding="compact")
        rng = random.Random(3)
        for _ in range(500):
            j = rng.randrange(32)
            v = rng.choice([1, 1, 1, 50, 300])
            assert simple.add(j, v) == compact.add(j, v)
        for j in range(32):
            assert simple.read(j) == compact.read(j)
            assert simple.level_of(j) == compact.level_of(j)

    def test_lower_overhead(self):
        simple = SalsaRow(w=64, s=8, encoding="simple")
        compact = SalsaRow(w=64, s=8, encoding="compact")
        assert compact.memory_bits < simple.memory_bits


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_row_totals_conserved_under_sum_merge(data):
    """Sum-merge conserves the row's total count exactly: the sum of
    counter values always equals the stream volume (the Thm V.1
    invariant: each merged counter holds the total frequency mapped
    into it)."""
    row = SalsaRow(w=16, s=4, merge="sum")
    total = 0
    for _ in range(data.draw(st.integers(min_value=1, max_value=120))):
        j = data.draw(st.integers(min_value=0, max_value=15))
        v = data.draw(st.integers(min_value=1, max_value=30))
        if row.saturations:
            break
        row.add(j, v)
        total += v
    if not row.saturations:
        assert sum(value for _s, _l, value in row.counters()) == total


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_row_max_merge_upper_bounds_slot_loads(data):
    """Max-merge counters upper-bound the exact per-slot loads (the
    Thm V.2 invariant)."""
    row = SalsaRow(w=16, s=4, merge="max")
    loads = [0] * 16
    for _ in range(data.draw(st.integers(min_value=1, max_value=120))):
        j = data.draw(st.integers(min_value=0, max_value=15))
        v = data.draw(st.integers(min_value=1, max_value=30))
        row.add(j, v)
        loads[j] += v
    if not row.saturations:
        for j in range(16):
            assert row.read(j) >= loads[j]


def all_counter_halving(row, rng):
    """The halving ``scale_down_half`` replaced: a walk over every
    live counter, skipping zeros, drawing in slot order."""
    for start, level, value in list(row.counters()):
        if value == 0:
            continue
        if rng is None:
            new = value // 2 if value >= 0 else -((-value) // 2)
        else:
            mag = abs(value)
            if mag <= 64:
                half = sum(1 for _ in range(mag) if rng.random() < 0.5)
            else:
                half = int(rng.gauss(mag / 2, math.sqrt(mag) / 2) + 0.5)
                half = min(mag, max(0, half))
            new = half if value > 0 else -half
        row.write_block(start, level, new)


@pytest.mark.parametrize("engine", ["vector", "bitpacked"])
@pytest.mark.parametrize("kind", ["sum", "max", "signed"])
@pytest.mark.parametrize("probabilistic", [True, False])
def test_scale_down_half_draws_as_the_all_counter_walk(probabilistic, kind,
                                                       engine):
    """On merged rows, ``scale_down_half`` (one ``read_many`` over the
    row) leaves the counters, levels and RNG state the old walk over
    every counter leaves."""
    rng = random.Random(7)
    row = build(SalsaRow, engine, w=64, s=4,
                merge="max" if kind == "max" else "sum",
                signed=kind == "signed")
    for _ in range(400):
        v = rng.choice([1, 3, 9, 40, 70, 300])
        row.add(rng.randrange(64), -v if kind == "signed" and
                rng.random() < 0.5 else v)
    assert row.merge_events > 0
    for _ in range(3):
        ours, theirs = row.copy(), row.copy()
        draws = [random.Random(11) if probabilistic else None
                 for _ in range(2)]
        ours.scale_down_half(draws[0])
        all_counter_halving(theirs, draws[1])
        assert list(ours.counters()) == list(theirs.counters())
        if probabilistic:
            assert draws[0].getstate() == draws[1].getstate()
        row = ours


#: every point door that takes a slot, called at slot ``j``
POINT_DOORS = {
    "read": lambda row, j: row.read(j),
    "add": lambda row, j: row.add(j, 7),
    "set_at_least": lambda row, j: row.set_at_least(j, 5),
    "level_of": lambda row, j: row.level_of(j),
    "locate": lambda row, j: row.locate(j),
    "read_many": lambda row, j: row.read_many([0, j]),
}


@pytest.mark.parametrize("j", [-1, -16, 16, 99])
@pytest.mark.parametrize("door", sorted(POINT_DOORS))
def test_point_doors_reject_slots_outside_the_row(door, j):
    """A slot outside ``[0, w)`` raises ValueError and moves nothing:
    ``add(-1, 7)`` used to write slot 15, ``read_many([-1])`` to wrap,
    and ``read(16)`` to leak NumPy's IndexError."""
    row = SalsaRow(w=16, s=8)
    row.add(15, 3)
    before = (row.levels.tolist(), row.values.tolist())
    with pytest.raises(ValueError, match=r"\[0, 16\)"):
        POINT_DOORS[door](row, j)
    assert (row.levels.tolist(), row.values.tolist()) == before
    assert row.read(15) == 3 and row.read(0) == 0


@pytest.mark.parametrize("row_class", [SalsaRow, TangoRow])
def test_read_many_rejects_slots_that_are_not_integers(row_class):
    """Slots are integers, as on the batch door: ``read_many([1.9])``
    used to truncate to slot 1, and a uint64 slot past ``2^63`` to
    wrap."""
    row = row_class(w=16, s=8)
    row.add(1, 5)
    assert row.read_many(np.array([1], dtype=np.uint64)).tolist() == [5]
    for bad in ([1.9], [True], np.array([1 << 63], dtype=np.uint64)):
        with pytest.raises(ValueError, match="integers"):
            row.read_many(bad)
