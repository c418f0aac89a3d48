"""Cross-module integration: pipelines that span several subsystems.

Each test wires together pieces that no single-module test combines --
the places where production systems actually break.
"""

import numpy as np
import pytest

from repro.core import (
    DistributedSketch,
    SalsaCountMin,
    SalsaCountSketch,
    WindowedSketch,
    ops,
    shard,
)
from repro.core.serialize import dumps, loads
from repro.hashing import HashFamily
from repro.sketches import AugmentedSketch, SpaceSaving
from repro.streams import (
    Trace,
    interleave,
    load_trace,
    packet_size_weights,
    save_trace,
    split_halves,
    zipf_trace,
)
from repro.tasks import HeavyHitterTracker


class TestSerializeThenCombine:
    def test_roundtrip_then_subtract(self):
        """Serialize both epoch sketches, reload, subtract -- the full
        change-detection wire path."""
        fam = HashFamily(5, seed=1)
        trace = zipf_trace(8_000, 1.1, universe=1_000, seed=1)
        a, b = split_halves(trace)
        sa = SalsaCountSketch(w=1024, d=5, hash_family=fam)
        sb = SalsaCountSketch(w=1024, d=5, hash_family=fam)
        for x in a:
            sa.update(x)
        for x in b:
            sb.update(x)
        sa2, sb2 = loads(dumps(sa)), loads(dumps(sb))
        ops.subtract(sa2, sb2)
        fa, fb = a.frequencies(), b.frequencies()
        heavy = max(fa, key=fa.get)
        expected = fa.get(heavy, 0) - fb.get(heavy, 0)
        assert sa2.query(heavy) == pytest.approx(expected, abs=30)

    def test_interleave_equals_merge(self):
        """sketch(interleave(A, B)) == merge(sketch(A), sketch(B)) for
        sum-merge SALSA (order invariance + linearity together)."""
        fam = HashFamily(4, seed=2)
        a = zipf_trace(4_000, 1.0, universe=600, seed=2)
        b = zipf_trace(4_000, 0.8, universe=600, seed=3)

        combined = SalsaCountMin(w=512, d=4, merge="sum", hash_family=fam)
        for x in interleave(a, b, seed=4):
            combined.update(x)

        sa = SalsaCountMin(w=512, d=4, merge="sum", hash_family=fam)
        sb = SalsaCountMin(w=512, d=4, merge="sum", hash_family=fam)
        for x in a:
            sa.update(x)
        for x in b:
            sb.update(x)
        ops.merge(sa, sb)

        for row_m, row_c in zip(sa.rows, combined.rows):
            for j in range(row_c.w):
                assert row_m.read(j) == row_c.read(j)


class TestWindowedDistributed:
    def test_windowed_over_distributed_epochs(self):
        """Rotate a window whose epochs are distributed merges."""
        def make_epoch_sketch():
            return SalsaCountMin(w=256, d=4, merge="sum",
                                 hash_family=HashFamily(4, seed=7))

        win = WindowedSketch(make_epoch_sketch, epoch=2_000)
        trace = zipf_trace(6_000, 1.0, universe=500, seed=7)
        for x in trace:
            win.update(x)
        assert win.rotations == 2
        # Window estimates over-approximate the recent window counts.
        lo, hi = win.window_span
        recent = Trace(trace.items[len(trace) - lo:])
        for item, f in recent.frequencies().items():
            assert win.query(item) >= f

    def test_distributed_weighted_bytes(self):
        """Shard a byte-weighted stream; the merged sketch dominates
        per-flow byte totals."""
        packets = zipf_trace(6_000, 1.1, universe=800, seed=8)
        weighted = packet_size_weights(packets, seed=8)
        dist = DistributedSketch(
            lambda fam: SalsaCountMin(w=1024, d=4, merge="sum",
                                      hash_family=fam),
            workers=3, d=4, seed=8)
        truth: dict[int, int] = {}
        for i, (item, size) in enumerate(weighted):
            dist.update(i % 3, item, size)
            truth[item] = truth.get(item, 0) + size
        combined = dist.combined()
        for item, total in truth.items():
            assert combined.query(item) >= total


class TestHybridPipelines:
    def test_augmented_spacesaving_agreement(self):
        """Two very different HH pipelines (filter-over-SALSA and
        Space-Saving) must agree on the φ-heavy set of a skewed
        stream."""
        trace = zipf_trace(15_000, 1.3, universe=3_000, seed=9)
        truth = trace.frequencies()

        aug = AugmentedSketch(
            SalsaCountMin.for_memory(8 * 1024, d=4, seed=9), k=16)
        ss = SpaceSaving(k=64)
        tracker = HeavyHitterTracker(capacity=64)
        for x in trace:
            aug.update(x)
            ss.update(x)
            tracker.offer(x, aug.query(x))

        phi = 5e-3
        from_sketch = [item for item in tracker.items()
                       if aug.query(item) >= phi * len(trace)]
        from_ss = [item for item, _est in ss.heavy_hitters(phi)]

        # Recall counts the phi-heavy items; precision forgives reports
        # in the (phi - eps, phi] tolerance band, eps = phi / 2.
        volume = sum(truth.values())
        heavy = {x for x, f in truth.items() if f >= phi * volume}
        tolerated = {x for x, f in truth.items() if f >= phi / 2 * volume}
        assert heavy
        # Both pipelines guarantee no false negatives (over-estimation).
        assert heavy <= set(from_sketch)
        assert heavy <= set(from_ss)
        # Precision is each algorithm's own promise: the sketch's noise
        # at 8KB is far below phi*N, while Space-Saving's k=64 entries
        # over-count by up to N/k ~ 1.6% of N >> phi, so only the
        # sketch pipeline is held to a high precision (at recall 1,
        # F1 > 0.8 and F1 > 0.3).
        def precision(reported):
            return len(set(reported) & tolerated) / len(set(reported))

        assert precision(from_sketch) > 2 / 3
        assert precision(from_ss) > 3 / 17

    def test_trace_persistence_feeds_sketch_identically(self, tmp_path):
        """npz round-trip changes nothing downstream."""
        trace = zipf_trace(3_000, 1.0, universe=400, seed=10)
        path = save_trace(trace, str(tmp_path / "t"))
        reloaded = load_trace(path)
        fam = HashFamily(4, seed=10)
        s1 = SalsaCountMin(w=256, d=4, hash_family=fam)
        s2 = SalsaCountMin(w=256, d=4, hash_family=fam)
        for x in trace:
            s1.update(x)
        for x in reloaded:
            s2.update(x)
        assert np.array_equal(trace.items, reloaded.items)
        for item in list(trace.frequencies())[:100]:
            assert s1.query(item) == s2.query(item)
