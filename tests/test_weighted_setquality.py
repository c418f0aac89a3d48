"""Tests for weighted streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SalsaCountMin, SalsaCountSketch
from repro.streams import (
    WeightedTrace,
    from_unit_trace,
    packet_size_weights,
    turnstile_trace,
    zipf_trace,
)


class TestWeightedTrace:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WeightedTrace(np.array([1, 2]), np.array([1]))

    def test_frequencies_are_net(self):
        wt = WeightedTrace(np.array([1, 1, 2]), np.array([5, -2, 3]))
        assert wt.frequencies() == {1: 3, 2: 3}
        assert wt.volume == 10

    def test_model_detection(self):
        cash = WeightedTrace(np.array([1, 2]), np.array([3, 4]))
        assert cash.is_cash_register()
        assert cash.is_strict_turnstile()
        strict = WeightedTrace(np.array([1, 1]), np.array([3, -2]))
        assert not strict.is_cash_register()
        assert strict.is_strict_turnstile()
        general = WeightedTrace(np.array([1, 1]), np.array([3, -5]))
        assert not general.is_strict_turnstile()

    def test_from_unit_trace(self):
        trace = zipf_trace(500, 1.0, universe=100, seed=1)
        wt = from_unit_trace(trace)
        assert wt.frequencies() == trace.frequencies()
        assert wt.is_cash_register()

    def test_packet_size_weights_shape(self):
        trace = zipf_trace(2_000, 1.0, universe=100, seed=2)
        wt = packet_size_weights(trace, seed=2)
        assert len(wt) == len(trace)
        assert wt.is_cash_register()
        assert (wt.values >= 40).all() and (wt.values <= 1500).all()
        # Bimodal: both modes present.
        assert (wt.values < 200).any() and (wt.values > 1200).any()
        mean = wt.values.mean()
        assert 500 < mean < 900  # near the requested 700B

    def test_turnstile_trace_is_strict(self):
        wt = turnstile_trace(1_000, universe=50, delete_fraction=0.4, seed=3)
        assert wt.is_strict_turnstile()
        assert not wt.is_cash_register()
        assert all(f >= 0 for f in wt.frequencies().values())

    def test_turnstile_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            turnstile_trace(10, delete_fraction=1.0)

    def test_salsa_cms_on_weighted_bytes(self):
        """SALSA CMS counts byte volumes (the 64-bit-counter use case):
        estimates over-approximate net weighted frequencies."""
        trace = zipf_trace(2_000, 1.2, universe=300, seed=4)
        wt = packet_size_weights(trace, seed=4)
        sketch = SalsaCountMin(w=1 << 12, d=4, s=8, seed=4)
        truth: dict[int, int] = {}
        for item, value in wt:
            sketch.update(item, value)
            truth[item] = truth.get(item, 0) + value
        for item, f in truth.items():
            assert sketch.query(item) >= f

    def test_salsa_cs_on_turnstile(self):
        """SALSA CS handles deletions (sum-merge, sign-magnitude)."""
        wt = turnstile_trace(800, universe=40, delete_fraction=0.3, seed=5)
        sketch = SalsaCountSketch(w=1 << 11, d=5, seed=5)
        for item, value in wt:
            sketch.update(item, value)
        truth = wt.frequencies()
        # Unbiased median estimate: allow sketch noise, check the bulk.
        close = sum(1 for item, f in truth.items()
                    if abs(sketch.query(item) - f) <= max(5, 0.5 * abs(f)))
        assert close / len(truth) > 0.8


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=10, max_value=200),
       st.integers(min_value=0, max_value=2**16))
def test_turnstile_trace_always_strict_property(length, seed):
    wt = turnstile_trace(length, universe=20, delete_fraction=0.5, seed=seed)
    assert wt.is_strict_turnstile()
