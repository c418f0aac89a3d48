"""Tests for the SALSA-fied sketches (CMS, CUS, CS)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    SalsaConservativeUpdate,
    SalsaCountMin,
    SalsaCountSketch,
)
from repro.hashing import HashFamily
from repro.streams import zipf_trace


class TestSalsaCountMin:
    def test_counts_exactly_without_collisions(self):
        sk = SalsaCountMin(w=1 << 12, d=4, seed=1)
        for _ in range(1000):
            sk.update(42)
        assert sk.query(42) == 1000

    def test_never_underestimates_max_merge(self):
        sk = SalsaCountMin(w=512, d=4, merge="max", seed=2)
        truth = {}
        for x in zipf_trace(20_000, 1.0, universe=4_000, seed=2):
            sk.update(x)
            truth[x] = truth.get(x, 0) + 1
        assert all(sk.query(x) >= f for x, f in truth.items())

    def test_never_underestimates_sum_merge(self):
        sk = SalsaCountMin(w=512, d=4, merge="sum", seed=3)
        truth = {}
        for x in zipf_trace(20_000, 1.0, universe=4_000, seed=3):
            sk.update(x)
            truth[x] = truth.get(x, 0) + 1
        assert all(sk.query(x) >= f for x, f in truth.items())

    def test_max_merge_dominates_sum_merge(self):
        """On Cash Register streams, max-merge estimates are bounded by
        sum-merge estimates (Thm V.2 proof)."""
        fam = HashFamily(4, seed=4)
        smax = SalsaCountMin(w=256, d=4, merge="max", hash_family=fam)
        ssum = SalsaCountMin(w=256, d=4, merge="sum", hash_family=fam)
        truth = {}
        for x in zipf_trace(30_000, 1.0, universe=4_000, seed=4):
            smax.update(x)
            ssum.update(x)
            truth[x] = truth.get(x, 0) + 1
        assert all(smax.query(x) <= ssum.query(x) for x in truth)

    def test_heavy_hitter_counts_far_past_8_bits(self):
        """The whole point: s=8 counters count way beyond 255."""
        sk = SalsaCountMin(w=256, d=4, seed=5)
        sk.update(7, 3_000_000)
        assert sk.query(7) >= 3_000_000

    def test_memory_includes_merge_bit_overhead(self):
        sk = SalsaCountMin(w=1024, d=4, s=8)
        # 1024 bytes payload + 128 bytes merge bits, times 4 rows.
        assert sk.memory_bytes == 4 * (1024 + 128)

    def test_for_memory_respects_budget_with_overhead(self):
        for budget in (4096, 64 * 1024):
            sk = SalsaCountMin.for_memory(budget, d=4, s=8)
            assert sk.memory_bytes <= budget

    def test_compact_encoding_fits_more_counters(self):
        simple = SalsaCountMin.for_memory(64 * 1024, encoding="simple")
        compact = SalsaCountMin.for_memory(64 * 1024, encoding="compact")
        assert compact.w >= simple.w
        assert compact.memory_bytes <= 64 * 1024

    def test_max_level_property(self):
        sk = SalsaCountMin(w=256, d=4, seed=6)
        assert sk.max_level == 0
        sk.update(1, 100_000)
        assert sk.max_level == 2

    def test_sum_merge_is_strict_turnstile(self):
        """The model follows the rows: sum merge takes deletions, on
        Tango rows too (which used to report Cash Register)."""
        from repro.core import SalsaAeeCountMin, TangoCountMin
        from repro.sketches import StreamModel
        assert SalsaCountMin(w=8, merge="sum").model is StreamModel.STRICT_TURNSTILE
        assert SalsaCountMin(w=8, merge="max").model is StreamModel.CASH_REGISTER
        assert TangoCountMin(w=8, merge="sum").model is StreamModel.STRICT_TURNSTILE
        assert TangoCountMin(w=8, merge="max").model is StreamModel.CASH_REGISTER
        assert SalsaCountSketch(w=8).model is StreamModel.TURNSTILE
        assert SalsaConservativeUpdate(w=8).model is StreamModel.CASH_REGISTER
        assert SalsaAeeCountMin(w=8).model is StreamModel.CASH_REGISTER

    def test_hash_family_must_match_the_rows(self):
        """A family with fewer functions than rows used to leave the
        extra rows unhashed on ``update`` and raise IndexError on
        ``query_many``; a TabulationFamily (no ``seeds``, no
        ``index_many``) used to fail at the first update.  The
        fixed-width CMS, CUS and CS take the same rule: they took a
        TabulationFamily and raised AttributeError at the first update,
        a 2-function family sent CUS's batch to IndexError and CS to a
        2-vote median, and CMS took a family with spare functions."""
        from repro.core import SalsaAeeCountMin, TangoCountMin
        from repro.hashing.tabulation import TabulationFamily
        from repro.sketches import (
            ConservativeUpdateSketch,
            CountMinSketch,
            CountSketch,
        )
        for cls in (SalsaCountMin, SalsaConservativeUpdate,
                    SalsaCountSketch, SalsaAeeCountMin, TangoCountMin,
                    CountMinSketch, ConservativeUpdateSketch, CountSketch):
            for fam in (HashFamily(2, seed=1), TabulationFamily(4, seed=1),
                        HashFamily(5, seed=1)):
                with pytest.raises(ValueError, match="HashFamily"):
                    cls(w=64, d=4, hash_family=fam)

    def test_estimate_zero_counters_unmerged(self):
        sk = SalsaCountMin(w=256, d=1, seed=7)
        sk.update(1)
        est = sk.estimate_zero_counters()
        assert est == 255  # one slot used, none merged

    def test_estimate_zero_counters_extrapolates_into_merges(self):
        sk = SalsaCountMin(w=256, d=1, seed=8)
        sk.update(1, 300)  # one merged 16-bit counter holding everything
        est = sk.estimate_zero_counters()
        # All 254 unmerged slots are zero, so f = 1 and the single
        # merged counter optimistically contributes its 1 slack slot.
        assert est == pytest.approx(254 + 1.0 * 1)


class TestSalsaConservativeUpdate:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            SalsaConservativeUpdate(w=64).update(1, 0)

    def test_never_underestimates(self):
        sk = SalsaConservativeUpdate(w=512, d=4, seed=1)
        truth = {}
        for x in zipf_trace(20_000, 1.0, universe=4_000, seed=5):
            sk.update(x)
            truth[x] = truth.get(x, 0) + 1
        assert all(sk.query(x) >= f for x, f in truth.items())

    def test_dominated_by_salsa_cms(self):
        """Conservative updates never exceed plain CMS updates."""
        fam = HashFamily(4, seed=6)
        cms = SalsaCountMin(w=256, d=4, merge="max", hash_family=fam)
        cus = SalsaConservativeUpdate(w=256, d=4, hash_family=fam)
        truth = {}
        for x in zipf_trace(30_000, 1.0, universe=4_000, seed=6):
            cms.update(x)
            cus.update(x)
            truth[x] = truth.get(x, 0) + 1
        assert all(cus.query(x) <= cms.query(x) for x in truth)

    def test_heavy_hitters_count_high(self):
        sk = SalsaConservativeUpdate(w=256, d=4, seed=7)
        for _ in range(70_000):
            sk.update(5)
        assert sk.query(5) >= 70_000

    def test_for_memory(self):
        sk = SalsaConservativeUpdate.for_memory(32 * 1024)
        assert sk.memory_bytes <= 32 * 1024


class TestSalsaCountSketch:
    def test_single_item_exact(self):
        sk = SalsaCountSketch(w=1 << 12, d=5, seed=1)
        sk.update(42, 700)
        assert sk.query(42) == 700

    def test_turnstile_deletions(self):
        sk = SalsaCountSketch(w=1 << 12, d=5, seed=2)
        sk.update(5, 300)
        sk.update(5, -300)
        assert sk.query(5) == 0

    def test_negative_totals(self):
        sk = SalsaCountSketch(w=1 << 12, d=5, seed=3)
        sk.update(5, -900)
        assert sk.query(5) == -900

    def test_roughly_unbiased_over_items(self):
        sk = SalsaCountSketch(w=256, d=5, seed=4)
        truth = {}
        for x in zipf_trace(20_000, 0.8, universe=3_000, seed=7):
            sk.update(x)
            truth[x] = truth.get(x, 0) + 1
        errors = [sk.query(x) - f for x, f in truth.items()]
        assert abs(sum(errors) / len(errors)) < 5.0

    def test_rows_are_sign_magnitude(self):
        sk = SalsaCountSketch(w=64, d=5, seed=5)
        assert all(row.signed for row in sk.rows)
        assert all(row.merge == "sum" for row in sk.rows)

    def test_row_estimate(self):
        sk = SalsaCountSketch(w=1 << 12, d=5, seed=6)
        sk.update(9, 50)
        assert sk.row_estimate(9, 2) == 50

    def test_for_memory(self):
        sk = SalsaCountSketch.for_memory(int(2.5 * 1024 * 1024 / 16), d=5)
        assert sk.memory_bytes <= int(2.5 * 1024 * 1024 / 16)

    def test_large_weighted_values_survive_merging(self):
        sk = SalsaCountSketch(w=256, d=5, seed=7)
        sk.update(3, 1_000_000)
        assert sk.query(3) == pytest.approx(1_000_000, abs=0)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=250))
def test_salsa_cms_overestimate_property(items):
    """SALSA CMS never under-estimates, for arbitrary streams."""
    sk = SalsaCountMin(w=16, d=3, s=4, seed=0)
    truth = {}
    for x in items:
        sk.update(x)
        truth[x] = truth.get(x, 0) + 1
    assert all(sk.query(x) >= f for x, f in truth.items())


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=250))
def test_salsa_cus_sandwich_property(items):
    """f_x <= SALSA-CUS(x) <= SALSA-CMS(x) on Cash Register streams."""
    fam = HashFamily(3, seed=0)
    cms = SalsaCountMin(w=16, d=3, s=4, merge="max", hash_family=fam)
    cus = SalsaConservativeUpdate(w=16, d=3, s=4, hash_family=fam)
    truth = {}
    for x in items:
        cms.update(x)
        cus.update(x)
        truth[x] = truth.get(x, 0) + 1
    assert all(f <= cus.query(x) <= cms.query(x) for x, f in truth.items())


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),
              st.integers(min_value=-20, max_value=20)),
    min_size=1, max_size=150,
))
def test_salsa_cs_exact_on_isolated_items(updates):
    """With a huge row, CS has no collisions and is exact per item --
    merging logic must not corrupt turnstile values."""
    sk = SalsaCountSketch(w=1 << 14, d=5, s=8, seed=0)
    truth = {}
    for x, v in updates:
        if v == 0:
            continue
        sk.update(x, v)
        truth[x] = truth.get(x, 0) + v
    for x, f in truth.items():
        assert sk.query(x) == f
