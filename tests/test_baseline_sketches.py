"""Tests for the baseline CMS / CUS / CS sketches."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing import HashFamily
from repro.sketches import (
    AeeSketch,
    ConservativeUpdateSketch,
    CountMinSketch,
    CountSketch,
    ZeroSketch,
    median,
    width_for_memory,
)
from repro.streams import zipf_trace


class TestWidthForMemory:
    def test_power_of_two(self):
        w = width_for_memory(2 * 1024 * 1024, d=4, counter_bits=32)
        assert w == 2**17  # the paper's 2MB baseline config

    def test_overhead_shrinks_width(self):
        plain = width_for_memory(1024, d=4, counter_bits=8)
        with_overhead = width_for_memory(1024, d=4, counter_bits=8,
                                         overhead_bits=1)
        assert with_overhead <= plain

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            width_for_memory(1, d=4, counter_bits=32)

    def test_salsa8_vs_baseline_ratio(self):
        """s=8 + 1 overhead bit fits ~3.5x the counters of 32-bit."""
        base = width_for_memory(64 * 1024, d=4, counter_bits=32)
        salsa = width_for_memory(64 * 1024, d=4, counter_bits=8,
                                 overhead_bits=1)
        assert salsa // base == 2  # power-of-two rounding of 32/9


class TestMedian:
    def test_odd(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_even(self):
        assert median([1.0, 2.0, 3.0, 10.0]) == 2.5

    def test_single(self):
        assert median([7.0]) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])


class TestCountMin:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            CountMinSketch(w=100)

    def test_rejects_bad_counter_bits(self):
        """Unsigned counters stop at 63 bits: a 64-bit cap does not fit
        the int64 cells (past 2^63 - 1 both doors raised OverflowError)."""
        for cls in (CountMinSketch, ConservativeUpdateSketch):
            for bits in (0, 64, 65):
                with pytest.raises(ValueError, match="counter_bits"):
                    cls(w=64, counter_bits=bits)

    def test_never_underestimates(self):
        cms = CountMinSketch(w=64, d=4, seed=1)
        truth = {}
        trace = zipf_trace(3000, 1.0, universe=500, seed=1)
        for x in trace:
            cms.update(x)
            truth[x] = truth.get(x, 0) + 1
        for x, f in truth.items():
            assert cms.query(x) >= f

    def test_exact_when_no_collisions(self):
        cms = CountMinSketch(w=1 << 14, d=4, seed=2)
        for _ in range(10):
            cms.update(123)
        assert cms.query(123) == 10

    def test_weighted_updates(self):
        cms = CountMinSketch(w=1 << 10, d=4, seed=3)
        cms.update(9, 500)
        assert cms.query(9) >= 500

    def test_saturation_of_small_counters(self):
        cms = CountMinSketch(w=1 << 10, d=4, counter_bits=8, seed=4)
        for _ in range(300):
            cms.update(5)
        assert cms.query(5) == 255  # saturated, not wrapped

    def test_negative_update_strict_turnstile(self):
        cms = CountMinSketch(w=1 << 10, d=4, seed=5)
        cms.update(7, 10)
        cms.update(7, -4)
        assert cms.query(7) >= 6

    def test_memory_bytes(self):
        cms = CountMinSketch(w=1024, d=4, counter_bits=32)
        assert cms.memory_bytes == 1024 * 4 * 4

    def test_for_memory(self):
        cms = CountMinSketch.for_memory(2 * 1024 * 1024, d=4)
        assert cms.w == 2**17
        assert cms.memory_bytes <= 2 * 1024 * 1024

    def test_zero_counters(self):
        cms = CountMinSketch(w=64, d=2, seed=6)
        assert cms.zero_counters(0) == 64
        cms.update(1)
        assert cms.zero_counters(0) == 63

    def test_merge(self):
        fam = HashFamily(4, seed=7)
        a = CountMinSketch(w=256, d=4, hash_family=fam)
        b = CountMinSketch(w=256, d=4, hash_family=fam)
        a.update(1, 5)
        b.update(1, 3)
        b.update(2, 2)
        a.merge(b)
        assert a.query(1) >= 8
        assert a.query(2) >= 2

    def test_subtract(self):
        fam = HashFamily(4, seed=8)
        a = CountMinSketch(w=256, d=4, hash_family=fam)
        b = CountMinSketch(w=256, d=4, hash_family=fam)
        a.update(1, 10)
        b.update(1, 4)  # B subset of A
        a.subtract(b)
        assert a.query(1) >= 6

    def test_merge_saturates_63_bit_counters(self):
        """Two counters near 2^63 - 1 merge to the cap (their int64
        sum used to wrap negative)."""
        a, b = (CountMinSketch(w=64, d=2, counter_bits=63, seed=1)
                for _ in range(2))
        a.update(5, a.cap - 3)
        b.update(5, b.cap - 3)
        a.merge(b)
        assert a.query(5) == a.cap == (1 << 63) - 1

    def test_merge_requires_shared_hashes(self):
        a = CountMinSketch(w=64, d=4, seed=1)
        b = CountMinSketch(w=64, d=4, seed=2)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_requires_same_shape(self):
        fam = HashFamily(4, seed=9)
        a = CountMinSketch(w=64, d=4, hash_family=fam)
        b = CountMinSketch(w=128, d=4, hash_family=fam)
        with pytest.raises(ValueError):
            a.merge(b)


class TestConservativeUpdate:
    def test_rejects_non_positive_updates(self):
        cus = ConservativeUpdateSketch(w=64, d=4)
        with pytest.raises(ValueError):
            cus.update(1, 0)
        with pytest.raises(ValueError):
            cus.update(1, -1)

    def test_never_underestimates(self):
        cus = ConservativeUpdateSketch(w=64, d=4, seed=1)
        truth = {}
        for x in zipf_trace(3000, 1.0, universe=500, seed=1):
            cus.update(x)
            truth[x] = truth.get(x, 0) + 1
        for x, f in truth.items():
            assert cus.query(x) >= f

    def test_dominated_by_cms(self):
        """CUS estimates are sandwiched: f_x <= CUS <= CMS (section III)."""
        fam = HashFamily(4, seed=2)
        cms = CountMinSketch(w=64, d=4, hash_family=fam)
        cus = ConservativeUpdateSketch(w=64, d=4, hash_family=fam)
        truth = {}
        for x in zipf_trace(5000, 0.9, universe=800, seed=2):
            cms.update(x)
            cus.update(x)
            truth[x] = truth.get(x, 0) + 1
        for x, f in truth.items():
            assert f <= cus.query(x) <= cms.query(x)

    def test_strictly_better_than_cms_in_aggregate(self):
        fam = HashFamily(4, seed=3)
        cms = CountMinSketch(w=128, d=4, hash_family=fam)
        cus = ConservativeUpdateSketch(w=128, d=4, hash_family=fam)
        truth = {}
        for x in zipf_trace(20_000, 1.0, universe=5_000, seed=3):
            cms.update(x)
            cus.update(x)
            truth[x] = truth.get(x, 0) + 1
        cms_err = sum(cms.query(x) - f for x, f in truth.items())
        cus_err = sum(cus.query(x) - f for x, f in truth.items())
        assert cus_err < cms_err

    def test_weighted_updates(self):
        cus = ConservativeUpdateSketch(w=1 << 10, d=4, seed=4)
        cus.update(9, 500)
        assert cus.query(9) >= 500

    def test_saturation(self):
        cus = ConservativeUpdateSketch(w=1 << 10, d=4, counter_bits=4, seed=5)
        for _ in range(100):
            cus.update(5)
        assert cus.query(5) == 15

    def test_for_memory(self):
        cus = ConservativeUpdateSketch.for_memory(64 * 1024)
        assert cus.memory_bytes <= 64 * 1024


@pytest.mark.parametrize("cls", [CountMinSketch, ConservativeUpdateSketch])
def test_63_bit_counters_saturate_on_both_doors(cls):
    """The widest unsigned counter saturates at 2^63 - 1, per item and
    in a batch alike."""
    top = (1 << 63) - 1
    per_item, batched = (cls(w=64, d=3, counter_bits=63, seed=2)
                         for _ in range(2))
    for _ in range(3):
        per_item.update(9, top)
    batched.update_many([9, 9, 9], [top, top, top])
    assert per_item.query(9) == batched.query(9) == top
    assert np.array_equal(per_item.mat, batched.mat)
    assert per_item.query_many([9, 10]).tolist() == [top, 0]


DEEPCOPIED = {
    "cms": lambda: CountMinSketch(w=128, d=4, seed=1),
    "cus": lambda: ConservativeUpdateSketch(w=128, d=4, seed=1),
    "cs": lambda: CountSketch(w=128, d=5, seed=1),
    "aee": lambda: AeeSketch(w=64, d=4, counter_bits=6, seed=1),
}


@pytest.mark.parametrize("name", sorted(DEEPCOPIED))
def test_deepcopy_is_an_independent_sketch(name):
    """A deep copy answers as the original and then moves on its own:
    no state (counters, AEE's sampling and RNG) is shared."""
    items = zipf_trace(3000, 1.1, universe=300, seed=4).items
    original = DEEPCOPIED[name]()
    original.update_many(items[:2000])
    clone = copy.deepcopy(original)
    probe = list(range(300))
    assert clone.query_many(probe).tolist() == original.query_many(
        probe).tolist()
    before = original.query_many(probe)
    clone.update_many(items[2000:])
    assert np.array_equal(original.query_many(probe), before)
    original.update_many(items[2000:])
    assert clone.query_many(probe).tolist() == original.query_many(
        probe).tolist()
    assert [clone.query(x) for x in probe] == [original.query(x)
                                                for x in probe]


class TestCountSketch:
    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            CountSketch(w=3)

    def test_single_item_exact(self):
        cs = CountSketch(w=1 << 12, d=5, seed=1)
        for _ in range(7):
            cs.update(99)
        assert cs.query(99) == 7

    def test_turnstile_deletions(self):
        cs = CountSketch(w=1 << 12, d=5, seed=2)
        cs.update(5, 10)
        cs.update(5, -10)
        assert cs.query(5) == 0

    def test_negative_frequencies_supported(self):
        cs = CountSketch(w=1 << 12, d=5, seed=3)
        cs.update(5, -8)
        assert cs.query(5) == -8

    def test_roughly_unbiased(self):
        """Mean signed error over many items should be near zero."""
        cs = CountSketch(w=256, d=5, seed=4)
        truth = {}
        for x in zipf_trace(20_000, 0.8, universe=3_000, seed=4):
            cs.update(x)
            truth[x] = truth.get(x, 0) + 1
        errors = [cs.query(x) - f for x, f in truth.items()]
        mean_err = sum(errors) / len(errors)
        assert abs(mean_err) < 5.0

    def test_merge_and_subtract(self):
        fam = HashFamily(5, seed=5)
        a = CountSketch(w=1 << 12, d=5, hash_family=fam)
        b = CountSketch(w=1 << 12, d=5, hash_family=fam)
        a.update(1, 6)
        b.update(1, 2)
        b.update(2, 9)
        a.subtract(b)
        assert a.query(1) == 4
        assert a.query(2) == -9

    def test_merge_and_subtract_clamp_like_the_update_door(self):
        """Two 8-bit counters at the clamp stay at the clamp when merged
        or subtracted (they used to read 256 and -255), as one sketch
        fed both streams per item does."""
        def sketch(*updates):
            cs = CountSketch(w=8, d=1, counter_bits=8, seed=1)
            for value in updates:
                cs.update(3, value)
            return cs

        a, b = sketch(500), sketch(500)
        a.merge(b)
        assert a.query(3) == sketch(1000).query(3) == 128
        assert np.array_equal(a.mat, sketch(1000).mat)
        a, b = sketch(500), sketch(-500)
        a.subtract(b)
        assert np.array_equal(a.mat, sketch(1000).mat)
        assert a.mat.min() >= a.min_val == -128

    @pytest.mark.parametrize("op", ["merge", "subtract"])
    def test_64_bit_merge_and_subtract_saturate_without_wrapping(self, op):
        """Counters at 2^63 - 1 merge to 2^63 - 1, not -2 (an int64
        wrap), and counters at -2^63 subtract to within range too."""
        hi, lo = (1 << 63) - 1, -(1 << 63)
        a, b = (CountSketch(w=8, d=1, counter_bits=64, seed=1)
                for _ in range(2))
        a.mat[0] = [hi, lo, hi, lo, 0, 5, hi, lo]
        b.mat[0] = ([hi, lo, lo, hi, lo, -5, 1, -1] if op == "merge"
                    else [lo, hi, hi, lo, hi, 5, -1, 1])
        want = [max(lo, min(hi, x + (y if op == "merge" else -y)))
                for x, y in zip(a.mat[0].tolist(), b.mat[0].tolist())]
        getattr(a, op)(b)
        assert a.mat[0].tolist() == want
        assert want[:2] == [hi, lo]   # both saturate, one at each end

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 8, 32, 64]), st.data())
    def test_merge_and_subtract_equal_the_clamped_sum(self, bits, data):
        hi, lo = (1 << (bits - 1)) - 1, -(1 << (bits - 1))
        cells = st.lists(st.one_of(st.integers(lo, hi),
                                   st.sampled_from([lo, hi, 0, -1, 1])),
                         min_size=8, max_size=8)
        x, y = data.draw(cells), data.draw(cells)
        for op, sign in (("merge", 1), ("subtract", -1)):
            a, b = (CountSketch(w=8, d=1, counter_bits=bits, seed=1)
                    for _ in range(2))
            a.mat[0], b.mat[0] = x, y
            getattr(a, op)(b)
            assert a.mat[0].tolist() == [max(lo, min(hi, p + sign * q))
                                         for p, q in zip(x, y)]
            assert b.mat[0].tolist() == y

    def test_row_estimate(self):
        cs = CountSketch(w=1 << 12, d=5, seed=6)
        cs.update(77, 13)
        assert cs.row_estimate(77, 0) == 13

    def test_for_memory(self):
        cs = CountSketch.for_memory(int(2.5 * 1024 * 1024), d=5)
        assert cs.w == 2**17  # the paper's 2.5MB CS config


class TestZeroSketch:
    def test_always_zero(self):
        z = ZeroSketch()
        z.update(1)
        z.update(1, 100)
        assert z.query(1) == 0
        assert z.memory_bytes == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=300))
def test_cms_overestimate_property(items):
    """CMS never under-estimates any item, for any stream."""
    cms = CountMinSketch(w=16, d=3, seed=0)
    truth = {}
    for x in items:
        cms.update(x)
        truth[x] = truth.get(x, 0) + 1
    assert all(cms.query(x) >= f for x, f in truth.items())


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=300))
def test_cus_sandwich_property(items):
    """f_x <= CUS(x) <= CMS(x) on any Cash Register stream."""
    fam = HashFamily(3, seed=0)
    cms = CountMinSketch(w=16, d=3, hash_family=fam)
    cus = ConservativeUpdateSketch(w=16, d=3, hash_family=fam)
    truth = {}
    for x in items:
        cms.update(x)
        cus.update(x)
        truth[x] = truth.get(x, 0) + 1
    assert all(f <= cus.query(x) <= cms.query(x) for x, f in truth.items())
