"""Tests for Tango: fine-grained counter merging."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SalsaRow, TangoRow
from repro.core.salsa_cms import TangoCountMin

from answers import assert_answers


class TestConstruction:
    def test_rejects_bad_w(self):
        with pytest.raises(ValueError):
            TangoRow(w=5)

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError):
            TangoRow(w=8, s=0)

    def test_rejects_bad_merge(self):
        with pytest.raises(ValueError):
            TangoRow(w=8, merge="weird")

    def test_default_max_slots(self):
        assert TangoRow(w=64, s=8).max_slots == 8   # grows to 64 bits
        assert TangoRow(w=64, s=1).max_slots == 64

    @pytest.mark.parametrize("max_slots", [0, -3])
    def test_rejects_counters_narrower_than_a_slot(self, max_slots):
        """``max_slots`` below 1 used to build a row whose 300-add
        saturated at 255."""
        with pytest.raises(ValueError, match="max_slots"):
            TangoRow(w=16, s=8, max_slots=max_slots)

    @pytest.mark.parametrize("max_bits", [4, 7])
    def test_sketch_rejects_max_bits_below_s(self, max_bits):
        """As SALSA CMS does: ``max_bits=4`` used to build 8-bit
        counters silently."""
        with pytest.raises(ValueError, match="smaller than s"):
            TangoCountMin(w=16, d=2, s=8, max_bits=max_bits)
        assert TangoCountMin(w=16, d=2, s=8, max_bits=8).rows[0].max_slots \
            == 1

    def test_memory_one_bit_per_slot(self):
        assert TangoRow(w=32, s=8).memory_bits == 32 * 8 + 32


class TestGrowthSchedule:
    """The paper's example: counter 9 grows <8,9>, <8..10>, <8..11>,
    <8..12> ... <8..15>, then <7..15>, <6..15>, ..."""

    def test_first_merge_aligns_to_pair(self):
        row = TangoRow(w=16, s=8)
        row.add(9, 255)
        row.add(9, 1)
        assert row.span_of(9) == (8, 9)

    def test_subsequent_merges_fill_the_block_rightward(self):
        row = TangoRow(w=16, s=8)
        spans = []
        row.add(9, 255)
        for _ in range(7):
            # Saturate the current span, force one extension.
            left, right = row.span_of(9)
            cap = (1 << ((right - left + 1) * 8)) - 1
            row.add(9, cap - row.read(9) + 1)
            spans.append(row.span_of(9))
        assert spans == [
            (8, 9), (8, 10), (8, 11), (8, 12), (8, 13), (8, 14), (8, 15),
        ]

    def test_then_extends_left(self):
        row = TangoRow(w=16, s=2, max_slots=16)
        row.add(9, 3)
        for _ in range(9):
            left, right = row.span_of(9)
            cap = (1 << ((right - left + 1) * 2)) - 1
            row.add(9, cap - row.read(9) + 1)
        assert row.span_of(9) == (6, 15)

    def test_extension_absorbs_merged_neighbour(self):
        row = TangoRow(w=16, s=8)
        row.add(10, 300)          # <10,11> forms
        row.add(9, 255)
        row.add(9, 1)             # 9 merges left: <8,9>
        left, right = row.span_of(9)
        cap = (1 << ((right - left + 1) * 8)) - 1
        row.add(9, cap - row.read(9) + 1)   # extend right, absorb <10,11>
        assert row.span_of(9) == (8, 11)


class TestCounting:
    def test_small_counts(self):
        row = TangoRow(w=8, s=8)
        for _ in range(200):
            row.add(3, 1)
        assert row.read(3) == 200

    def test_max_merge_semantics(self):
        row = TangoRow(w=8, s=8, merge="max")
        row.add(0, 200)
        row.add(1, 255)
        row.add(1, 1)     # merge <0,1>: max(256, 200)
        assert row.read(0) == 256

    def test_sum_merge_semantics(self):
        row = TangoRow(w=8, s=8, merge="sum")
        row.add(0, 200)
        row.add(1, 255)
        row.add(1, 1)
        assert row.read(0) == 456

    def test_saturation_at_max_slots(self):
        row = TangoRow(w=4, s=8, max_slots=2)
        row.add(0, 1 << 20)
        assert row.read(0) == (1 << 16) - 1
        assert row.saturations == 1

    def test_set_at_least(self):
        row = TangoRow(w=8, s=8, merge="max")
        assert row.set_at_least(2, 300) == 300
        assert row.span_of(2) == (2, 3)
        assert row.set_at_least(2, 100) == 300

    def test_set_at_least_requires_max(self):
        with pytest.raises(ValueError):
            TangoRow(w=8, merge="sum").set_at_least(0, 5)

    def test_counters_partition(self):
        row = TangoRow(w=8, s=8)
        row.add(4, 300)
        spans = [(left, right) for left, right, _v in row.counters()]
        covered = [s for left, right in spans for s in range(left, right + 1)]
        assert covered == list(range(8))

    def test_odd_s_bit_widths(self):
        """s=4: 12-bit (3-slot) counters exercise unaligned fields."""
        row = TangoRow(w=16, s=4, max_slots=16)
        row.add(9, 3000)   # needs 12 bits -> 3 slots
        assert row.read(9) == 3000
        left, right = row.span_of(9)
        assert right - left + 1 == 3


class TestTangoContainedInSalsa:
    """'At every point in time, the Tango counters are contained in the
    corresponding SALSA counters' (section IV)."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_containment_property(self, data):
        salsa = SalsaRow(w=16, s=4, merge="max")
        tango = TangoRow(w=16, s=4, max_slots=16, merge="max")
        for _ in range(data.draw(st.integers(min_value=1, max_value=80))):
            j = data.draw(st.integers(min_value=0, max_value=15))
            v = data.draw(st.integers(min_value=1, max_value=40))
            salsa.add(j, v)
            tango.add(j, v)
            for slot in range(16):
                level, start = salsa.locate(slot)
                s_left, s_right = start, start + (1 << level) - 1
                t_left, t_right = tango.span_of(slot)
                assert s_left <= t_left and t_right <= s_right

    def test_estimates_at_most_salsa(self):
        rng = random.Random(7)
        salsa = SalsaRow(w=32, s=8, merge="max")
        tango = TangoRow(w=32, s=8, merge="max")
        for _ in range(2000):
            j = rng.randrange(32)
            salsa.add(j, 1)
            tango.add(j, 1)
        for j in range(32):
            assert tango.read(j) <= salsa.read(j)


class TestTangoCountMin:
    def test_counts(self):
        sk = TangoCountMin(w=256, d=4, s=8, seed=1)
        for _ in range(500):
            sk.update(42)
        assert sk.query(42) >= 500

    def test_never_underestimates(self):
        from repro.streams import zipf_trace
        sk = TangoCountMin(w=256, d=4, s=8, seed=2)
        truth = {}
        for x in zipf_trace(10_000, 1.0, universe=2_000, seed=3):
            sk.update(x)
            truth[x] = truth.get(x, 0) + 1
        assert all(sk.query(x) >= f for x, f in truth.items())

    def test_for_memory_within_budget(self):
        sk = TangoCountMin.for_memory(16 * 1024, d=4, s=8)
        assert sk.memory_bytes <= 16 * 1024

    @pytest.mark.parametrize("item,value", [(2 ** 70, 1), (1.9, 1),
                                            (3, 2 ** 63), (3, -1)])
    def test_both_doors_reject_what_max_merge_cannot_take(self, item,
                                                         value):
        """Tango checks its inputs as SALSA CMS does: keys and values
        within int64, and no negative value under max merge.  Both
        doors raise ValueError before any row changes."""
        sk, fresh = (TangoCountMin(w=64, d=3, s=8, seed=1)
                     for _ in range(2))
        for sketch in (sk, fresh):
            sketch.update(5, 300)
        with pytest.raises(ValueError):
            sk.update(item, value)
        with pytest.raises(ValueError):
            sk.update_many([5, item], [1, value])
        if value == 1:
            with pytest.raises(ValueError):
                sk.query(item)
        for a, b in zip(sk.rows, fresh.rows):
            assert list(a.counters()) == list(b.counters())
        probe = list(range(64))
        assert_answers(sk, probe, fresh.query_many(probe))

    def test_sum_merge_takes_deletions_on_both_doors(self):
        per_item, batched = (TangoCountMin(w=64, d=3, s=8, merge="sum",
                                           seed=1) for _ in range(2))
        for x, v in [(5, 300), (5, -120), (6, 2)]:
            per_item.update(x, v)
        batched.update_many([5, 5, 6], [300, -120, 2])
        assert per_item.query(5) == 180
        assert_answers(batched, [5, 6, 5], [180, per_item.query(6), 180])


#: every door of a Tango row that takes a slot, called at slot ``j``
POINT_DOORS = {
    "read": lambda row, j: row.read(j),
    "add": lambda row, j: row.add(j, 7),
    "set_at_least": lambda row, j: row.set_at_least(j, 5),
    "span_of": lambda row, j: row.span_of(j),
    "read_many": lambda row, j: row.read_many([0, j]),
}


@pytest.mark.parametrize("j", [-1, 16, 99])
@pytest.mark.parametrize("door", sorted(POINT_DOORS))
def test_point_doors_reject_slots_outside_the_row(door, j):
    """A slot outside ``[0, w)`` raises ValueError and moves nothing
    (``add(-1, 7)`` used to write slot 15)."""
    row = TangoRow(w=16, s=8)
    row.add(15, 3)
    before = list(row.counters())
    with pytest.raises(ValueError, match=r"\[0, 16\)"):
        POINT_DOORS[door](row, j)
    assert list(row.counters()) == before
