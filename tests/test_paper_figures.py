"""Executable reproductions of the paper's worked examples.

Figures 1, 2, 3 and 18 are not measurements but concrete
encoding/merging walkthroughs; these tests assert our implementation
produces exactly the states the paper draws.
"""

import pytest

from repro.core import SalsaCountSketch, layout_count, ops
from repro.hashing import HashFamily

from reference_rows import BitPackedRow, CompactLayout, MergeBitLayout


class TestFigure1:
    """Fig 1: a 16-slot s=8 array with merged counters <4..7>, <10,11>,
    <14,15> and merge bits set at positions 4, 5, 6, 10, 14."""

    def _build(self):
        # The bit-packed reference row: the tests read its merge bits.
        row = BitPackedRow(w=16, s=8, merge="sum")
        row.add(0, 7)
        row.add(2, 3)
        # Build the 32-bit counter <4..7> holding 21773.
        row.add(4, 255)
        row.add(4, 1)        # merge <4,5>
        row.add(4, 65535 - 256 + 1)   # merge <4..7>
        row.add(4, 21773 - 65536)     # adjust down to the figure's value
        row.add(9, 97)
        row.add(10, 255)
        row.add(10, 1)       # merge <10,11>
        row.add(10, 813 - 256)
        row.add(13, 20)
        row.add(14, 255)
        row.add(14, 1)       # merge <14,15>
        row.add(14, 4833 - 256)
        return row

    def test_values(self):
        row = self._build()
        assert row.read(0) == 7
        assert row.read(1) == 0
        assert row.read(2) == 3
        assert row.read(4) == 21773
        assert row.read(9) == 97
        assert row.read(10) == 813
        assert row.read(13) == 20
        assert row.read(14) == 4833

    def test_merge_bits_match_figure(self):
        row = self._build()
        expected = [0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0]
        assert [int(b) for b in row.layout.bits] == expected

    def test_levels(self):
        row = self._build()
        assert [row.level_of(j) for j in range(16)] == [
            0, 0, 0, 0, 2, 2, 2, 2, 0, 0, 1, 1, 0, 0, 1, 1
        ]

    def test_large_counters_consume_more_indices(self):
        row = self._build()
        sizes = [1 << level for _s, level in row.layout.counters()]
        assert sorted(sizes, reverse=True)[0] == 4
        assert sum(sizes) == 16


class TestFigure2:
    """Fig 2: sum vs max merging on the same 8-slot state."""

    def _initial(self, merge):
        # State: [0, 255, 3, 0, 65533(<4,5>), 95, 11], m4 set.
        row = BitPackedRow(w=8, s=8, merge=merge)
        row.add(1, 255)
        row.add(2, 3)
        row.add(4, 255)
        row.add(4, 65533 - 255)  # merges <4,5> on the way
        row.add(6, 95)
        row.add(7, 11)
        assert row.read(4) == 65533 and row.level_of(4) == 1
        assert [int(b) for b in row.layout.bits] == [0, 0, 0, 0, 1, 0, 0, 0]
        return row

    def test_sum_merge_panel_a(self):
        row = self._initial("sum")
        row.add(5, 5)     # <y,5>: 65538 overflows; sum-merge <4..7>
        assert row.read(4) == 65533 + 5 + 95 + 11  # = 65644
        assert [int(b) for b in row.layout.bits] == [0, 0, 0, 0, 1, 1, 1, 0]
        row.add(1, 3)     # <x,3>: 258 overflows; merge <0,1>
        assert row.read(0) == 258
        assert [int(b) for b in row.layout.bits] == [1, 0, 0, 0, 1, 1, 1, 0]

    def test_max_merge_panel_b(self):
        row = self._initial("max")
        row.add(5, 5)     # max-merge: max(65538, 95, 11) = 65538
        assert row.read(4) == 65538
        row.add(1, 3)
        assert row.read(0) == 258
        assert [int(b) for b in row.layout.bits] == [1, 0, 0, 0, 1, 1, 1, 0]


class TestFigure3:
    """Fig 3's structure: merging and subtracting SALSA CS sketches
    yields a layout covering both inputs with summed/differenced
    values."""

    def test_union_and_difference(self):
        fam = HashFamily(1, seed=42)
        sa = SalsaCountSketch(w=8, d=1, s=8, hash_family=fam)
        sb = SalsaCountSketch(w=8, d=1, s=8, hash_family=fam)
        sa.rows[0].add(0, -48)
        sa.rows[0].add(1, 110)
        sa.rows[0].add(2, 3)
        sa.rows[0].add(4, 20_000)    # forms a merged counter
        sb.rows[0].add(0, 104)
        sb.rows[0].add(2, 127)
        sb.rows[0].add(2, 272)       # merged <2,3>
        sb.rows[0].add(4, 24_380)

        union = SalsaCountSketch(w=8, d=1, s=8, hash_family=fam)
        for src in (sa, sb):
            tmp = SalsaCountSketch(w=8, d=1, s=8, hash_family=fam)
            tmp.rows[0] = src.rows[0].copy()
            ops.merge(union, tmp)
        # As in the figure's s(A u B): slots 0 and 1 stay separate
        # (-48 + 104 = 56 fits in 8 signed bits), the big counters sum.
        assert union.rows[0].read(0) == -48 + 104
        assert union.rows[0].read(1) == 110
        assert union.rows[0].read(4) == 20_000 + 24_380

        diff = SalsaCountSketch(w=8, d=1, s=8, hash_family=fam)
        diff.rows[0] = sa.rows[0].copy()
        ops.subtract(diff, sb)
        assert diff.rows[0].read(4) == 20_000 - 24_380
        # Layout of the difference covers both inputs' layouts.
        for j in range(8):
            assert diff.rows[0].level_of(j) >= max(
                sa.rows[0].level_of(j), sb.rows[0].level_of(j)
            )


class TestFigure18:
    """Fig 18: decoding X_5 = 449527 for a 32-slot group.

    The figure's layout: slots 0-15 unmerged singles... actually the
    figure shows counters of sizes: <0..15> NOT all merged; following
    its decode trace: X_4 = floor(X_5 / a_4) = 663, X'_3 = X_4 mod
    a_3 = 13, X_2 = floor(X'_3 / a_2) = 2, X_1 = floor(X_2 / a_1) = 1 =
    a_1 - 1, so slot 9 is merged with slot 8.
    """

    def test_decode_trace(self):
        a = layout_count
        x5 = 449_527
        assert x5 < a(5)
        x4 = x5 // a(4)
        assert x4 == 663 and x4 < a(4) - 1
        x3p = x4 % a(3)
        assert x3p == 13 and x3p < a(3) - 1
        x2 = x3p // a(2)
        assert x2 == 2 and x2 < a(2) - 1
        x1 = x2 // a(1)
        assert x1 == 1 == a(1) - 1   # slots <8,9> merged

    def test_compact_layout_agrees_with_manual_decode(self):
        lay = CompactLayout(32, max_level=5, group_level=5)
        lay._x[0] = 449_527
        assert lay.level_of(9) == 1
        assert lay.locate(9) == (1, 8)

    def test_encode_decode_roundtrip_of_that_layout(self):
        lay = CompactLayout(32, max_level=5, group_level=5)
        lay._x[0] = 449_527
        levels = lay._levels_array(449_527, 5)
        assert lay._encode(levels, 5) == 449_527


class TestSectionIVMergeChain:
    """Section IV's running example: 6 -> <6,7> -> <4..7> -> <0..7>."""

    def test_chain(self):
        lay = MergeBitLayout(8, 3)
        level, start = lay.merge_up(6, 0)
        assert (level, start) == (1, 6)
        level, start = lay.merge_up(start, level)
        assert (level, start) == (2, 4)
        level, start = lay.merge_up(start, level)
        assert (level, start) == (3, 0)
        assert all(lay.level_of(j) == 3 for j in range(8))
