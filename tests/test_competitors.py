"""Tests for the competitor sketches: Pyramid, ABC, AEE, Cold Filter, UnivMon."""

import math

import pytest

from repro.sketches import (
    AbcSketch,
    AeeSketch,
    ColdFilter,
    ConservativeUpdateSketch,
    CountSketch,
    PyramidSketch,
    UnivMon,
)
from repro.streams import zipf_trace


class TestPyramid:
    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            PyramidSketch(w1=100)
        with pytest.raises(ValueError):
            PyramidSketch(w1=2)

    def test_rejects_small_delta(self):
        with pytest.raises(ValueError):
            PyramidSketch(w1=64, delta=2)

    def test_small_counts_exact_without_collisions(self):
        p = PyramidSketch(w1=1 << 12, d=4, seed=1)
        for _ in range(100):
            p.update(42)
        assert p.query(42) == 100

    def test_counts_past_one_layer(self):
        """A single flow larger than 2^delta - 1 must carry upward."""
        p = PyramidSketch(w1=1 << 12, d=4, delta=8, seed=2)
        for _ in range(1000):
            p.update(42)
        assert p.query(42) == pytest.approx(1000, abs=2)

    def test_counts_past_two_layers(self):
        p = PyramidSketch(w1=1 << 12, d=4, delta=8, seed=3)
        p.update(42, 20_000)
        assert p.query(42) == pytest.approx(20_000, abs=300)

    def test_never_underestimates_on_cash_register(self):
        p = PyramidSketch(w1=256, d=4, seed=4)
        truth = {}
        for x in zipf_trace(5000, 1.0, universe=1000, seed=4):
            p.update(x)
            truth[x] = truth.get(x, 0) + 1
        for x, f in truth.items():
            assert p.query(x) >= f

    def test_siblings_share_msbs(self):
        """Two items carrying into the same parent pollute each other --
        the variance mechanism of Fig 9 region A."""
        p = PyramidSketch(w1=4, d=1, delta=8, layers=3, seed=0)
        # Force both children of parent 0 to carry.
        p._increment(0)
        for _ in range(256):
            p._increment(0)
        for _ in range(256):
            p._increment(1)
        # Counter 0 reads its own count plus the sibling's carried MSBs.
        assert p._reconstruct(0) > 257

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            PyramidSketch(w1=64).update(1, 0)

    def test_for_memory_within_budget(self):
        p = PyramidSketch.for_memory(4096, d=4)
        assert p.memory_bytes <= 4096

    def test_top_layer_saturates(self):
        p = PyramidSketch(w1=8, d=1, delta=4, seed=5)
        p.update(1, 10_000_000)
        assert p.query(1) < 10_000_000  # saturated, no layer left


class TestAbc:
    def test_small_counts_exact(self):
        abc = AbcSketch(w=1 << 12, d=4, seed=1)
        for _ in range(100):
            abc.update(42)
        assert abc.query(42) == 100

    def test_combines_on_overflow(self):
        abc = AbcSketch(w=1 << 12, d=4, s=8, seed=2)
        abc.update(42, 1000)
        assert abc.query(42) >= 1000

    def test_saturates_at_2s_minus_3_bits(self):
        """The paper: s=8 ABC counts at most 2^13 - 1 = 8191."""
        abc = AbcSketch(w=1 << 12, d=4, s=8, seed=3)
        abc.update(42, 50_000)
        assert abc.query(42) == 8191

    def test_combined_pair_shares_count(self):
        abc = AbcSketch(w=2, d=1, s=8, seed=0)
        abc._add(0, 0, 300)   # overflows, combines pair <0,1>
        assert abc._read(0, 0) == abc._read(0, 1) == 300

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            AbcSketch(w=64).update(1, 0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            AbcSketch(w=63)
        with pytest.raises(ValueError):
            AbcSketch(w=64, s=2)

    def test_memory_includes_marker_bits(self):
        abc = AbcSketch(w=64, d=1, s=8)
        assert abc.memory_bytes == (64 * 8 + 32 * 3 + 7) // 8

    def test_for_memory_within_budget(self):
        abc = AbcSketch.for_memory(4096, d=4)
        assert abc.memory_bytes <= 4096

    def test_never_underestimates_below_saturation(self):
        abc = AbcSketch(w=512, d=4, seed=4)
        truth = {}
        for x in zipf_trace(5000, 1.0, universe=1000, seed=5):
            abc.update(x)
            truth[x] = truth.get(x, 0) + 1
        for x, f in truth.items():
            if f < 8191:
                assert abc.query(x) >= min(f, 8191)


class TestAee:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            AeeSketch(w=64, mode="warp")

    @pytest.mark.parametrize("interval", [0, -3])
    def test_speed_interval_validation(self, interval):
        """0 used to take the default silently, and -3 downsampled on
        every sampled update."""
        with pytest.raises(ValueError, match="speed_interval"):
            AeeSketch(w=64, mode="speed", speed_interval=interval)

    def test_exact_before_any_downsampling(self):
        aee = AeeSketch(w=1 << 12, d=4, counter_bits=16, seed=1)
        for _ in range(50):
            aee.update(42)
        assert aee.p == 1.0
        assert aee.query(42) == 50

    def test_downsampling_halves_p(self):
        aee = AeeSketch(w=64, d=1, counter_bits=4, seed=2)
        aee.update(1, 40)   # cap is 15 -> must downsample
        assert aee.p < 1.0

    def test_estimate_tracks_truth_after_downsampling(self):
        aee = AeeSketch(w=1 << 10, d=4, counter_bits=8, seed=3)
        aee.update(42, 2000)
        assert aee.query(42) == pytest.approx(2000, rel=0.25)

    def test_deterministic_halving(self):
        aee = AeeSketch(w=64, d=1, counter_bits=16, probabilistic=False, seed=4)
        aee.rows[0].add(0, 9)
        aee.downsample()
        assert aee.rows[0].read(0) == 4
        assert aee.p == 0.5

    def test_max_speed_downsamples_proactively(self):
        aee = AeeSketch(w=64, d=2, counter_bits=16, mode="speed",
                        speed_interval=100, seed=5)
        for i in range(500):
            aee.update(i % 10)
        assert aee.p < 1.0

    def test_error_bound_monotone_in_volume(self):
        aee = AeeSketch(w=64, d=2, counter_bits=16, seed=6)
        aee.update(1, 100)
        b1 = aee.error_bound(0.01)
        aee.update(1, 10_000)
        assert aee.error_bound(0.01) > b1

    def test_error_bound_validation(self):
        aee = AeeSketch(w=64)
        with pytest.raises(ValueError):
            aee.error_bound(0.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            AeeSketch(w=64).update(1, 0)


class TestColdFilter:
    def _build(self, seed=1):
        stage2 = ConservativeUpdateSketch(w=512, d=4, seed=seed + 1)
        return ColdFilter(w1=1 << 12, stage2=stage2, seed=seed)

    def test_cold_items_stay_in_stage1(self):
        cf = self._build()
        for _ in range(5):
            cf.update(42)
        assert cf.query(42) == 5
        assert cf.stage2.query(42) == 0

    def test_hot_items_spill(self):
        cf = self._build()
        for _ in range(100):
            cf.update(42)
        assert cf.stage2.query(42) >= 85  # 100 - T
        assert cf.query(42) >= 100

    def test_weighted_spill(self):
        cf = self._build()
        cf.update(42, 1000)
        assert cf.query(42) >= 1000

    def test_never_underestimates(self):
        cf = self._build(seed=3)
        truth = {}
        for x in zipf_trace(5000, 1.0, universe=1000, seed=6):
            cf.update(x)
            truth[x] = truth.get(x, 0) + 1
        for x, f in truth.items():
            assert cf.query(x) >= f

    def test_threshold_from_bits(self):
        cf = ColdFilter(w1=64, stage2=ConservativeUpdateSketch(w=64),
                        stage1_bits=4)
        assert cf.threshold == 15

    def test_memory_includes_both_stages(self):
        stage2 = ConservativeUpdateSketch(w=512, d=4)
        cf = ColdFilter(w1=1024, stage2=stage2, stage1_bits=4)
        assert cf.memory_bytes == 1024 * 4 // 8 + stage2.memory_bytes

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            self._build().update(1, 0)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            ColdFilter(w1=100, stage2=ConservativeUpdateSketch(w=64))


class TestUnivMon:
    def _build(self, seed=1, levels=8, w=256):
        return UnivMon(w=w, d=5, levels=levels, heap_size=50, seed=seed)

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            UnivMon(w=64, levels=0)

    @pytest.mark.parametrize("heap_size", [0, -1])
    def test_rejects_an_empty_heap(self, heap_size):
        """A heap that holds nothing failed only at the first update,
        inside the heap's eviction (``min()`` of an empty dict)."""
        with pytest.raises(ValueError, match="heap_size"):
            UnivMon(w=64, levels=2, heap_size=heap_size)

    def test_level0_sees_everything(self):
        um = self._build()
        assert um.sampled_at(123, 0)

    def test_sampling_halves_per_level(self):
        um = self._build(levels=4)
        survivors = sum(1 for x in range(2000) if um.sampled_at(x, 1))
        assert 800 <= survivors <= 1200

    def test_frequency_query(self):
        um = self._build()
        for _ in range(50):
            um.update(7)
        assert um.query(7) == pytest.approx(50, abs=10)

    def test_f1_gsum_close(self):
        um = self._build(seed=2)
        trace = zipf_trace(20_000, 1.2, universe=2_000, seed=7)
        for x in trace:
            um.update(x)
        est = um.gsum(lambda f: f)
        assert est == pytest.approx(trace.volume, rel=0.35)

    def test_f2_gsum_order_of_magnitude(self):
        um = self._build(seed=3)
        trace = zipf_trace(20_000, 1.2, universe=2_000, seed=8)
        for x in trace:
            um.update(x)
        est = um.gsum(lambda f: f * f)
        truth = trace.moment(2)
        assert truth / 3 <= est <= truth * 3

    def test_entropy_gsum(self):
        um = self._build(seed=4)
        trace = zipf_trace(20_000, 1.2, universe=2_000, seed=9)
        for x in trace:
            um.update(x)
        n = trace.volume
        y = um.gsum(lambda f: f * math.log2(f) if f > 0 else 0.0)
        est = math.log2(n) - y / n
        assert est == pytest.approx(trace.entropy(), rel=0.35)

    def test_custom_cs_factory(self):
        calls = []

        def factory(level):
            calls.append(level)
            return CountSketch(w=64, d=5, seed=level)

        UnivMon(w=64, levels=4, cs_factory=factory)
        assert calls == [0, 1, 2, 3]

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            self._build().update(1, 0)

    def test_heap_bounded(self):
        um = UnivMon(w=64, d=5, levels=2, heap_size=5, seed=5)
        for x in range(100):
            um.update(x)
        assert all(len(h.entries) <= 5 for h in um.heaps)
