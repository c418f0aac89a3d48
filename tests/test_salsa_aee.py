"""Tests for SALSA AEE: the merge-vs-downsample estimator integration."""

import math

import pytest

from repro.core import SalsaAeeCountMin, salsa_aee
from repro.sketches import AeeSketch
from repro.streams import zipf_trace


class TestConstruction:
    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            SalsaAeeCountMin(w=64, delta=0.0)
        with pytest.raises(ValueError):
            SalsaAeeCountMin(w=64, delta=1.0)

    def test_paper_configuration(self):
        """delta = 4 * delta_est = 0.001 (section VI)."""
        sk = SalsaAeeCountMin(w=64, delta=0.001)
        assert sk.delta_est == pytest.approx(0.00025)

    def test_rejects_non_positive_updates(self):
        with pytest.raises(ValueError):
            SalsaAeeCountMin(w=64).update(1, 0)

    def test_for_memory(self):
        sk = SalsaAeeCountMin.for_memory(8 * 1024)
        assert sk.memory_bytes <= 8 * 1024

    def test_rejects_negative_downsample_first(self):
        with pytest.raises(ValueError, match="downsample_first"):
            SalsaAeeCountMin(w=64, downsample_first=-1)


#: a SALSA AEE and a fixed-width AEE that `update(1, 600)` downsamples
SAMPLED = {
    "salsa-aee": lambda: SalsaAeeCountMin(w=8, d=2, s=4, max_bits=8,
                                          seed=1),
    "aee": lambda: AeeSketch(w=8, d=2, counter_bits=4, seed=1),
}


def _aee_state(sk):
    return (sk.p, sk.volume, sk._rng.getstate(),
            [[row.read(j) for j in range(sk.w)] for row in sk.rows])


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_both_doors_reject_a_weight_above_the_bound(name):
    """A weight is that many unit arrivals, each drawing the sampler
    once p < 1; both doors refuse one above MAX_WEIGHT at entry, at
    ``p == 1`` and below, before anything moves
    (``update(3, 2**63 - 1)`` used to never return)."""
    sk = SAMPLED[name]()
    for p_is_one in (True, False):
        before = _aee_state(sk)
        assert (sk.p == 1.0) == p_is_one
        for weight in (salsa_aee.MAX_WEIGHT + 1, 2**63 - 1):
            with pytest.raises(ValueError, match="MAX_WEIGHT"):
                sk.update(3, weight)
            with pytest.raises(ValueError, match="MAX_WEIGHT"):
                sk.update_many([1, 2, 3], [1, weight, 1])
        assert _aee_state(sk) == before
        sk.update(1, 600)


class TestErrorModel:
    def test_estimator_error_formula(self):
        sk = SalsaAeeCountMin(w=64, delta=0.001)
        sk.volume = 10_000
        sk.p = 0.5
        expected = math.sqrt(2 * math.log(2 / 0.00025) / (10_000 * 0.5))
        assert sk.estimator_error() == pytest.approx(expected)

    def test_estimator_error_zero_volume(self):
        assert SalsaAeeCountMin(w=64).estimator_error() == 0.0

    def test_merge_error_formula(self):
        sk = SalsaAeeCountMin(w=1024, d=4, delta=0.001)
        sk.top_level = 2
        expected = 0.001 ** (-0.25) * 4 / 1024
        assert sk.merge_error() == pytest.approx(expected)

    def test_merge_error_grows_with_level(self):
        sk = SalsaAeeCountMin(w=1024, d=4)
        e0 = sk.merge_error()
        sk.top_level = 3
        assert sk.merge_error() == pytest.approx(8 * e0)


class TestPolicy:
    def test_prefers_merging_with_plenty_of_counters(self):
        """Large w makes merging cheap: it should merge, not downsample."""
        sk = SalsaAeeCountMin(w=1 << 14, d=4, seed=1)
        sk.update(42, 50_000)
        assert sk.p == 1.0
        assert sk.top_level >= 1
        assert sk.query(42) >= 50_000

    def test_downsamples_when_merging_too_costly(self):
        """Tiny w makes the merge guarantee terrible: it downsamples."""
        sk = SalsaAeeCountMin(w=4, d=1, s=8, max_bits=16, seed=2)
        sk.update(42, 10_000)
        assert sk.downsample_events >= 1
        assert sk.p < 1.0

    def test_estimate_stays_close_after_downsampling(self):
        sk = SalsaAeeCountMin(w=16, d=2, s=8, max_bits=16, seed=3)
        sk.update(42, 30_000)
        assert sk.query(42) == pytest.approx(30_000, rel=0.3)

    def test_forced_downsamples_first(self):
        """SALSA AEE_d downsamples on the first d overflow decisions,
        reaching a sampling rate of 2^-d."""
        sk = SalsaAeeCountMin(w=1 << 10, d=4, downsample_first=3, seed=4)
        sk.update(42, 100_000)
        assert sk.downsample_events >= 3
        assert sk.p <= 2 ** -3

    def test_accuracy_on_real_stream(self):
        sk = SalsaAeeCountMin(w=512, d=4, seed=5)
        truth = {}
        for x in zipf_trace(30_000, 1.2, universe=3_000, seed=5):
            sk.update(x)
            truth[x] = truth.get(x, 0) + 1
        heavy = max(truth, key=truth.get)
        assert sk.query(heavy) == pytest.approx(truth[heavy], rel=0.3)


class TestSplitting:
    def test_split_restores_small_counters(self):
        sk = SalsaAeeCountMin(w=16, d=1, s=8, max_bits=16, split=True,
                              probabilistic=False, seed=6)
        row = sk.rows[0]
        row.add(4, 300)          # 16-bit counter <4,5>
        sk.downsample()          # halves to 150, splits back to 8-bit
        assert row.level_of(4) == 0
        assert row.read(4) == 150
        assert row.read(5) == 150

    def test_split_skips_still_large_counters(self):
        sk = SalsaAeeCountMin(w=16, d=1, s=8, split=True,
                              probabilistic=False, seed=7)
        row = sk.rows[0]
        row.add(4, 60_000)
        sk.downsample()          # 30_000 still needs 16 bits
        assert row.level_of(4) >= 1

    def test_split_variant_estimates_match_unsplit(self):
        base = SalsaAeeCountMin(w=64, d=2, s=8, max_bits=16,
                                split=False, probabilistic=False, seed=8)
        split = SalsaAeeCountMin(w=64, d=2, s=8, max_bits=16,
                                 split=True, probabilistic=False, seed=8)
        for sk in (base, split):
            sk.update(42, 5_000)
        assert split.query(42) == pytest.approx(base.query(42), rel=0.25)


class TestSampling:
    def test_query_rescales_by_p(self):
        sk = SalsaAeeCountMin(w=64, d=1, seed=9)
        sk.rows[0].add(0, 50)
        sk.p = 0.25
        item = None
        # Find an item hashing to slot 0.
        from repro.hashing import mix64
        for cand in range(1000):
            if mix64(cand ^ sk.hashes.seeds[0]) & 63 == 0:
                item = cand
                break
        assert sk.query(item) == 50 / 0.25

    def test_low_p_skips_most_updates(self):
        sk = SalsaAeeCountMin(w=1 << 10, d=4, downsample_first=6, seed=10)
        sk.update(1, 40_000)     # drives p to 2^-6
        before = sum(v for _s, _l, v in sk.rows[0].counters())
        sk.update(2, 1_000)
        after = sum(v for _s, _l, v in sk.rows[0].counters())
        # At p ~ 1/64, ~16 of 1000 updates land.
        assert after - before < 200
