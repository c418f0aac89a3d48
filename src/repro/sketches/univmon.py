"""UnivMon: the universal monitoring sketch (Liu et al., SIGCOMM 2016).

UnivMon maintains O(log u) levels; level j sees item x only if x's
first j sampling-hash bits are all 1 (so each level halves the expected
universe).  Every level runs an L2 sketch (Count Sketch) plus a heap of
its heaviest items.  Any G-sum in Stream-PolyLog is then estimated by
the bottom-up recursion

    Y_j = 2 * Y_{j+1} + sum_{x in Q_j} G(f̂_x^j) * (1 - 2 * sampled_{j+1}(x))

The paper's configuration (section VI): 16 CS instances, d = 5, heaps
of size 100.  Fig 12 swaps the CS instances for SALSA CS, which is why
the level sketch is an injected factory here.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.hashing import HashFamily, mix64, mix64_many
from repro.sketches.base import (
    BatchOpsMixin,
    StreamModel,
    answer_dtype,
    as_batch,
    as_item,
    as_keys,
    batch_answers,
)
from repro.sketches.count_sketch import CountSketch


class _TopHeap:
    """Tracks the heap_size items with the largest running estimates."""

    __slots__ = ("capacity", "entries")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: dict[int, float] = {}

    def offer(self, item: int, estimate: float) -> None:
        entries = self.entries
        if item in entries or len(entries) < self.capacity:
            entries[item] = estimate
            return
        victim = min(entries, key=entries.get)
        if estimate > entries[victim]:
            del entries[victim]
            entries[item] = estimate

    def items(self) -> list[int]:
        return list(self.entries)


class UnivMon(BatchOpsMixin):
    """Universal sketch over ``levels`` sampled substreams.

    Parameters
    ----------
    w:
        Row width of each per-level Count Sketch.
    d:
        Rows per Count Sketch (paper: 5).
    levels:
        Number of levels (paper: 16).
    heap_size:
        Heavy-item heap per level (paper: 100).
    cs_factory:
        ``f(level) -> sketch`` override; used to build SALSA UnivMon.

    The class takes its shape, not a budget: the paper's configuration
    at a memory budget (16 levels sharing it equally, baseline or
    SALSA CS) is :func:`repro.experiments.algorithms.univmon`.
    """

    model = StreamModel.CASH_REGISTER

    def __init__(self, w: int, d: int = 5, levels: int = 16,
                 heap_size: int = 100, seed: int = 0,
                 cs_factory: Callable[[int], object] | None = None):
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        if heap_size < 1:
            raise ValueError(f"heap_size must be >= 1, got {heap_size}")
        self.w = w
        self.d = d
        self.levels = levels
        self.heap_size = heap_size
        if cs_factory is None:
            cs_factory = lambda level: CountSketch(
                w=w, d=d, seed=seed + 7919 * (level + 1)
            )
        self.sketches = [cs_factory(j) for j in range(levels)]
        self.heaps = [_TopHeap(heap_size) for _ in range(levels)]
        # One sampling hash per level > 0; level 0 sees everything.
        self._sample_seeds = [
            HashFamily(1, seed ^ (0x5A11CE + j)).seeds[0]
            for j in range(levels)
        ]
        self.volume = 0

    # ------------------------------------------------------------------
    def sampled_at(self, item: int, level: int) -> bool:
        """Whether ``item`` survives the level's sampling hash."""
        if level == 0:
            return True
        return bool(mix64(item ^ self._sample_seeds[level]) & 1)

    def _max_level(self, item: int) -> int:
        """Deepest level whose sampling prefix keeps ``item``."""
        level = 0
        while level + 1 < self.levels and self.sampled_at(item, level + 1):
            level += 1
        return level

    def update(self, item: int, value: int = 1) -> None:
        """Feed ``item`` to every level that samples it."""
        item, value = as_item(item, value)
        if value < 1:
            raise ValueError("UnivMon is used on Cash Register streams")
        self.volume += value
        deepest = self._max_level(item)
        for j in range(deepest + 1):
            sketch = self.sketches[j]
            sketch.update(item, value)
            self.heaps[j].offer(item, sketch.query(item))

    def query(self, item: int) -> float:
        """Frequency estimate from the level-0 sketch."""
        item, _ = as_item(item)
        return self.sketches[0].query(item)

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    def _deepest_levels(self, items: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_max_level` over a batch: the number of
        leading levels (from 1 up) whose sampling bit is 1."""
        if self.levels == 1:
            return np.zeros(len(items), dtype=np.int64)
        keys = items.view(np.uint64)[None, :] ^ np.array(
            self._sample_seeds[1:], dtype=np.uint64)[:, None]
        bits = (mix64_many(keys) & np.uint64(1)).astype(bool)
        return np.logical_and.accumulate(bits, axis=0).sum(axis=0)

    def update_many(self, items, values=None) -> None:
        """Batched update: vectorized level assignment, then one
        matrix-kernel pass per level with exact heap replay.

        Levels are independent (each owns its sketch and heap), and an
        item reaches levels ``0..deepest``; feeding each level its
        sub-batch in stream order reproduces the per-item walk exactly.
        Per level, :meth:`CountSketch.update_many_with_estimates`
        bulk-applies the sub-batch *and* returns each arrival's
        post-update estimate, so the heap sees the same sequence of
        offers as the interleaved per-item loop; levels whose sketch is
        not a vectorizable plain Count Sketch (or could clamp
        mid-batch) take the exact per-item walk instead.
        """
        items, values = as_batch(items, values)
        if len(items) == 0:
            return
        if int(values.min()) < 1:
            raise ValueError("UnivMon is used on Cash Register streams")
        self.volume += int(values.sum())
        deepest = self._deepest_levels(items)
        for j in range(self.levels):
            mask = deepest >= j
            if not mask.any():
                continue
            sub_items = items[mask]
            sub_values = values[mask]
            sketch = self.sketches[j]
            heap = self.heaps[j]
            estimates = None
            if type(sketch) is CountSketch:
                estimates = sketch.update_many_with_estimates(
                    sub_items, sub_values)
            if estimates is None:
                for x, v in zip(sub_items.tolist(), sub_values.tolist()):
                    sketch.update(x, v)
                    heap.offer(x, sketch.query(x))
            else:
                offer = heap.offer
                for x, est in zip(sub_items.tolist(), estimates.tolist()):
                    offer(x, est)

    @property
    def query_dtype(self) -> np.dtype:
        """The level-0 sketch's answer dtype."""
        return answer_dtype(self.sketches[0])

    def query_many(self, items) -> np.ndarray:
        """Batched frequency estimates from the level-0 sketch."""
        return batch_answers(self.sketches[0], as_keys(items))

    # ------------------------------------------------------------------
    def gsum(self, g: Callable[[float], float]) -> float:
        """Estimate sum_x G(f_x) by the UnivMon recursion."""
        bottom = self.levels - 1
        heap = self.heaps[bottom]
        sketch = self.sketches[bottom]
        y = sum(
            g(est) for x in heap.items()
            if (est := max(0.0, sketch.query(x))) > 0
        )
        for j in range(self.levels - 2, -1, -1):
            sketch = self.sketches[j]
            total = 0.0
            for x in self.heaps[j].items():
                est = max(0.0, sketch.query(x))
                if est <= 0:
                    continue
                indicator = 1 if self.sampled_at(x, j + 1) else 0
                total += g(est) * (1 - 2 * indicator)
            y = 2 * y + total
        return y

    @property
    def memory_bytes(self) -> int:
        """All level sketches plus heap entries (16B per entry)."""
        sketch_bytes = sum(s.memory_bytes for s in self.sketches)
        heap_bytes = sum(16 * len(h.entries) for h in self.heaps)
        return sketch_bytes + heap_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"UnivMon(w={self.w}, d={self.d}, levels={self.levels}, "
                f"heap_size={self.heap_size})")
