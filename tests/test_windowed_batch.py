"""WindowedSketch batch-door equivalence at epoch boundaries.

``update_many`` slices a batch so rotation fires at exactly the same
update index as the per-item loop: after any sequence of batches --
straddling one boundary, several, or none -- ``rotations``, the
in-epoch fill, ``n``, and every query answer must match a per-item
reference fed the same updates.
"""

import numpy as np
import pytest

from repro.core import SalsaCountMin, WindowedSketch
from repro.sketches import CountMinSketch
from repro.streams import zipf_trace

from answers import assert_answers


def _pair(epoch, factory=None):
    factory = factory or (lambda: SalsaCountMin(w=256, d=4, s=8, seed=1))
    return (WindowedSketch(factory, epoch=epoch),
            WindowedSketch(factory, epoch=epoch))


def _assert_equivalent(batched, reference, items):
    assert batched.rotations == reference.rotations
    assert batched._in_epoch == reference._in_epoch
    assert batched.n == reference.n
    assert batched.window_span == reference.window_span
    assert (batched.previous is None) == (reference.previous is None)
    flows = sorted(set(items))
    for x in flows:
        assert batched.query(x) == reference.query(x)
        assert (batched.query_current_epoch(x)
                == reference.query_current_epoch(x))
    assert_answers(batched, flows, [reference.query(x) for x in flows])


class TestEpochBoundaries:
    @pytest.mark.parametrize("batch", [1, 7, 49, 50, 51, 99, 100, 101,
                                       149, 150, 151])
    def test_single_stream_all_offsets(self, batch):
        """Chunked ingest at every alignment relative to epoch=50."""
        items = zipf_trace(400, 1.0, universe=60, seed=2).items
        win, ref = _pair(epoch=50)
        for start in range(0, len(items), batch):
            win.update_many(items[start:start + batch])
        for x in items.tolist():
            ref.update(x)
        _assert_equivalent(win, ref, items.tolist())

    def test_batch_larger_than_two_epochs(self):
        """One batch spanning > 2x the epoch rotates repeatedly, at
        exactly the per-item indices."""
        items = zipf_trace(730, 1.1, universe=80, seed=3).items
        win, ref = _pair(epoch=100)
        win.update_many(items)           # 730 updates: 7 rotations
        for x in items.tolist():
            ref.update(x)
        assert win.rotations == 7
        assert win._in_epoch == 30
        _assert_equivalent(win, ref, items.tolist())

    def test_exact_epoch_multiple_rotates_lazily(self):
        """Filling epochs exactly leaves the rotation pending, like the
        per-item loop (it rotates on the *next* update)."""
        win, ref = _pair(epoch=10)
        win.update_many(np.full(20, 4, dtype=np.int64))
        for _ in range(20):
            ref.update(4)
        assert win.rotations == 1          # second rotation still pending
        assert win._in_epoch == 10
        _assert_equivalent(win, ref, [4])
        win.update_many(np.array([5], dtype=np.int64))
        ref.update(5)
        assert win.rotations == 2
        _assert_equivalent(win, ref, [4, 5])

    def test_empty_batch_is_a_noop(self):
        win, ref = _pair(epoch=10)
        win.update_many(np.array([], dtype=np.int64))
        assert win.n == 0 and win.rotations == 0
        _assert_equivalent(win, ref, [])

    def test_weighted_batches(self):
        """Epochs count updates, not weight -- weighted batches split
        at the same indices."""
        rng = np.random.default_rng(4)
        items = rng.integers(0, 40, 260)
        values = rng.integers(1, 9, 260)
        win, ref = _pair(epoch=75)
        for start in range(0, 260, 60):
            win.update_many(items[start:start + 60],
                            values[start:start + 60])
        for x, v in zip(items.tolist(), values.tolist()):
            ref.update(x, v)
        _assert_equivalent(win, ref, items.tolist())

    def test_sketch_without_batch_door_falls_back(self):
        """Factories may build sketches lacking ``update_many``; the
        per-item fallback still splits at the right indices."""

        class PlainCounter:
            def __init__(self):
                self.counts = {}

            def update(self, item, value=1):
                self.counts[item] = self.counts.get(item, 0) + value

            def query(self, item):
                return self.counts.get(item, 0)

        items = zipf_trace(330, 1.0, universe=30, seed=5).items
        win, ref = _pair(epoch=100, factory=PlainCounter)
        win.update_many(items)
        for x in items.tolist():
            ref.update(x)
        assert win.rotations == ref.rotations == 3
        for x in set(items.tolist()):
            assert win.query(x) == ref.query(x)

    def test_mixed_item_and_batch_updates(self):
        """Interleaving the two doors keeps the epoch clock aligned."""
        items = zipf_trace(500, 1.0, universe=50, seed=6).items
        win, ref = _pair(epoch=64)
        pos = 0
        for step, size in enumerate([13, 64, 1, 200, 5, 100, 117]):
            chunk = items[pos:pos + size]
            pos += size
            if step % 2:
                for x in chunk.tolist():
                    win.update(x)
            else:
                win.update_many(chunk)
        for x in items.tolist():
            ref.update(x)
        _assert_equivalent(win, ref, items.tolist())

    def test_baseline_sketch_backing(self):
        """The window is sketch-agnostic: a fixed-width CMS batches
        through the same door."""
        items = zipf_trace(450, 1.0, universe=70, seed=7).items
        factory = lambda: CountMinSketch(w=256, d=4, seed=2)
        win, ref = _pair(epoch=150, factory=factory)
        win.update_many(items)
        for x in items.tolist():
            ref.update(x)
        _assert_equivalent(win, ref, items.tolist())
