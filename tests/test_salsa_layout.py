"""Tests for the SALSA merge-bit layout and the compact encoding."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import encoding_bits, layout_count

from reference_rows import CompactLayout, MergeBitLayout


class TestMergeBitLayout:
    def test_rejects_bad_w(self):
        with pytest.raises(ValueError):
            MergeBitLayout(12, 2)

    def test_rejects_bad_max_level(self):
        with pytest.raises(ValueError):
            MergeBitLayout(8, 4)  # 2^4 > 8
        with pytest.raises(ValueError):
            MergeBitLayout(8, -1)

    def test_initial_all_level_zero(self):
        lay = MergeBitLayout(16, 3)
        assert all(lay.level_of(j) == 0 for j in range(16))

    def test_paper_merge_bit_positions(self):
        """Fig 1 / section IV worked example: m6, m5, m3."""
        lay = MergeBitLayout(16, 3)
        lay.merge_up(6, 0)          # <6,7>: i=3, l=1 -> m6
        assert lay.bits.get(6)
        lay.merge_up(4, 0)          # <4,5>
        lay.merge_up(6, 1)          # <4..7>: i=1, l=2 -> m5
        assert lay.bits.get(5)
        lay.merge_up(0, 0)
        lay.merge_up(2, 0)
        lay.merge_up(0, 1)
        lay.merge_up(4, 2)          # <0..7>: i=0, l=3 -> m3
        assert lay.bits.get(3)
        assert all(lay.level_of(j) == 3 for j in range(8))
        assert all(lay.level_of(j) == 0 for j in range(8, 16))

    def test_merge_direction_alternates(self):
        """Counter 6 merges right with 7; counter 7 merges left with 6 --
        either way the block is <6,7>."""
        for start in (6, 7):
            lay = MergeBitLayout(16, 3)
            level, new_start = lay.merge_up(start, 0)
            assert (level, new_start) == (1, 6)

    def test_merge_absorbs_unmerged_sibling(self):
        """<6,7> merging left absorbs 4 and 5 even if they never merged."""
        lay = MergeBitLayout(16, 3)
        lay.merge_up(6, 0)
        level, start = lay.merge_up(6, 1)
        assert (level, start) == (2, 4)
        # All four slots now report the same 4-slot counter.
        assert [lay.level_of(j) for j in range(4, 8)] == [2, 2, 2, 2]

    def test_merge_past_max_level_rejected(self):
        lay = MergeBitLayout(4, 1)
        lay.merge_up(0, 0)
        with pytest.raises(ValueError):
            lay.merge_up(0, 1)

    def test_locate(self):
        lay = MergeBitLayout(16, 3)
        lay.merge_up(10, 0)
        assert lay.locate(11) == (1, 10)
        assert lay.locate(9) == (0, 9)

    def test_counters_iteration(self):
        lay = MergeBitLayout(8, 3)
        lay.merge_up(2, 0)
        assert list(lay.counters()) == [
            (0, 0), (1, 0), (2, 1), (4, 0), (5, 0), (6, 0), (7, 0)
        ]

    def test_split_reverses_merge(self):
        lay = MergeBitLayout(8, 3)
        lay.merge_up(2, 0)
        lay.merge_up(2, 1)   # <0..3>
        assert lay.level_of(0) == 2
        assert lay.split(0, 2) == 1
        # Two fully merged halves remain.
        assert lay.locate(0) == (1, 0)
        assert lay.locate(2) == (1, 2)

    def test_split_unmerged_rejected(self):
        with pytest.raises(ValueError):
            MergeBitLayout(8, 3).split(0, 0)

    def test_overhead_one_bit_per_counter(self):
        assert MergeBitLayout(128, 3).overhead_bits == 128
        assert MergeBitLayout.overhead_bits_per_counter == 1.0

    def test_copy_independent(self):
        lay = MergeBitLayout(8, 2)
        lay.merge_up(0, 0)
        cp = lay.copy()
        cp.merge_up(4, 0)
        assert lay.level_of(4) == 0
        assert cp.level_of(4) == 1


class TestLayoutCount:
    def test_recurrence(self):
        """a_0=1, a_n = a_{n-1}^2 + 1 (Appendix A)."""
        assert [layout_count(n) for n in range(6)] == [1, 2, 5, 26, 677, 458330]

    def test_a2_is_five_layouts(self):
        """The appendix enumerates exactly 5 layouts of 4 counters."""
        assert layout_count(2) == 5

    def test_bounds_lemma(self):
        """Lemma A.1: floor(1.5^(2^n)) <= a_n < 1.51^(2^n)."""
        for n in range(1, 8):
            a = layout_count(n)
            assert int(1.5 ** (2 ** n)) <= a < 1.51 ** (2 ** n)

    def test_z5_is_19_bits(self):
        """z_5 = 19 bits for 32 counters => 0.594 bits/counter."""
        assert encoding_bits(5) == 19
        assert encoding_bits(5) / 32 == pytest.approx(0.594, abs=1e-3)

    def test_overhead_below_0594_for_n_at_least_5(self):
        for n in range(5, 9):
            assert encoding_bits(n) / (1 << n) < 0.594 + 1e-9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            layout_count(-1)


class TestCompactLayout:
    def test_matches_simple_interface(self):
        lay = CompactLayout(32, max_level=3)
        assert all(lay.level_of(j) == 0 for j in range(32))
        assert lay.merge_up(6, 0) == (1, 6)
        assert lay.level_of(7) == 1
        assert lay.locate(6) == (1, 6)

    def test_merge_sequence_like_fig1(self):
        lay = CompactLayout(32, max_level=3)
        lay.merge_up(6, 0)
        lay.merge_up(6, 1)
        assert [lay.level_of(j) for j in range(4, 8)] == [2, 2, 2, 2]
        lay.merge_up(4, 2)
        assert all(lay.level_of(j) == 3 for j in range(8))

    def test_max_level_enforced(self):
        lay = CompactLayout(32, max_level=1)
        lay.merge_up(0, 0)
        with pytest.raises(ValueError):
            lay.merge_up(0, 1)

    def test_group_level_validation(self):
        with pytest.raises(ValueError):
            CompactLayout(32, max_level=4, group_level=3)

    def test_small_row_shrinks_group(self):
        lay = CompactLayout(8, max_level=3)
        assert lay.group_level == 3
        assert lay.n_groups == 1

    def test_overhead_bits(self):
        lay = CompactLayout(64, max_level=3)  # two 32-slot groups
        assert lay.overhead_bits == 2 * 19
        assert lay.overhead_bits_per_counter == pytest.approx(19 / 32)

    def test_split(self):
        lay = CompactLayout(32, max_level=3)
        lay.merge_up(0, 0)
        lay.merge_up(0, 1)
        assert lay.split(0, 2) == 1
        assert lay.locate(0) == (1, 0)
        assert lay.locate(2) == (1, 2)

    def test_counters_iteration(self):
        lay = CompactLayout(32, max_level=3)
        lay.merge_up(2, 0)
        counters = dict(lay.counters())
        assert counters[2] == 1
        assert sum(1 << lvl for _s, lvl in lay.counters()) == 32

    def test_copy_independent(self):
        lay = CompactLayout(32, max_level=3)
        lay.merge_up(0, 0)
        cp = lay.copy()
        cp.merge_up(4, 0)
        assert lay.level_of(4) == 0 and cp.level_of(4) == 1

    def test_encode_decode_roundtrip_exhaustive_n2(self):
        """All 5 layouts of a 4-slot block survive encode->decode."""
        lay = CompactLayout(32, max_level=3)
        layouts = [
            [0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1],
            [2, 2, 2, 2],
        ]
        seen = set()
        for levels in layouts:
            x = lay._encode(levels, 2)
            seen.add(x)
            assert lay._levels_array(x, 2) == levels
        assert len(seen) == 5 == layout_count(2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compact_agrees_with_simple_under_random_merges(data):
    """Both encodings must describe identical layouts after any legal
    merge sequence -- the compact one is just a denser code."""
    simple = MergeBitLayout(32, 3)
    compact = CompactLayout(32, 3)
    for _ in range(data.draw(st.integers(min_value=0, max_value=25))):
        j = data.draw(st.integers(min_value=0, max_value=31))
        level, start = simple.locate(j)
        if level >= 3:
            continue
        simple.merge_up(start, level)
        c_level, c_start = compact.locate(j)
        assert (c_level, c_start) == (level, start)
        compact.merge_up(c_start, c_level)
    assert [simple.level_of(j) for j in range(32)] == [
        compact.level_of(j) for j in range(32)
    ]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_layout_partition_invariant(data):
    """Counters always partition the row: block sizes sum to w."""
    lay = MergeBitLayout(64, 3)
    for _ in range(data.draw(st.integers(min_value=0, max_value=40))):
        j = data.draw(st.integers(min_value=0, max_value=63))
        level, start = lay.locate(j)
        if level < 3:
            lay.merge_up(start, level)
    starts = []
    total = 0
    for start, level in lay.counters():
        starts.append(start)
        total += 1 << level
        # Blocks are aligned to their own size.
        assert start % (1 << level) == 0
    assert total == 64
    assert starts == sorted(starts)
