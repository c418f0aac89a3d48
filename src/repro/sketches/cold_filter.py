"""Cold Filter (Zhou et al., SIGMOD 2018 / VLDB J. 2019) -- reimplemented.

A two-stage meta-framework: stage 1 is a small conservative-update
filter that absorbs the *cold* items; only items whose stage-1 estimate
has hit the threshold spill into stage 2, which measures the heavy
items accurately.  Fig 13 replaces the stage-2 CUS ("CM-CU" in the
original paper) with SALSA CUS; the stage-2 sketch is therefore an
injected dependency here.

We omit the SIMD aggregation buffer of the original implementation: it
is a throughput device that "needs to be drained upon query, which
negates its speedup potential in the on-arrival model" (section VI), so
the paper's accuracy results do not depend on it.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.hashing import HashFamily, mix64
from repro.sketches.base import (
    BatchOpsMixin,
    StreamModel,
    add_exact,
    answer_dtype,
    as_batch,
    as_item,
    as_keys,
    batch_answers,
)


class ColdFilter(BatchOpsMixin):
    """Two-stage Cold Filter wrapper around any stage-2 sketch.

    Parameters
    ----------
    w1:
        Stage-1 filter width (power of two).
    stage2:
        Any frequency sketch (CUS or SALSA CUS in the paper).
    d1:
        Stage-1 hash count (authors' default 3).
    stage1_bits:
        Stage-1 counter width; the spill threshold is its saturation
        value ``2**stage1_bits - 1`` (4 bits -> T = 15, the authors'
        recommendation).

    The class takes its shape, not a budget: the Fig 13 configuration
    at a memory budget (half to stage 1, half to a baseline or SALSA
    CUS) is :func:`repro.experiments.algorithms.cold_filter`.
    """

    model = StreamModel.CASH_REGISTER

    def __init__(self, w1: int, stage2, d1: int = 3, stage1_bits: int = 4,
                 seed: int = 0):
        if w1 < 1 or w1 & (w1 - 1):
            raise ValueError(f"w1 must be a positive power of two, got {w1}")
        self.w1 = w1
        self.d1 = d1
        self.stage1_bits = stage1_bits
        self.threshold = (1 << stage1_bits) - 1
        self.stage2 = stage2
        self.hashes = HashFamily(d1, seed ^ 0xC01D)
        self.stage1 = array("q", [0]) * w1

    # ------------------------------------------------------------------
    def update(self, item: int, value: int = 1) -> None:
        """Absorb into stage 1 up to the threshold; spill the rest."""
        item, value = as_item(item, value)
        if value < 1:
            raise ValueError("Cold Filter is a Cash Register framework")
        mask = self.w1 - 1
        stage1 = self.stage1
        idxs = [mix64(item ^ seed) & mask for seed in self.hashes.seeds]
        est = min(stage1[i] for i in idxs)
        total = est + value
        if total <= self.threshold:
            # Conservative update within stage 1.
            for i in idxs:
                if stage1[i] < total:
                    stage1[i] = total
            return
        # Fill stage 1 to the brim, spill the remainder into stage 2.
        for i in idxs:
            if stage1[i] < self.threshold:
                stage1[i] = self.threshold
        spill = total - self.threshold
        self.stage2.update(item, spill)

    def query(self, item: int) -> float:
        """Stage-1 estimate if cold, else threshold + stage-2 estimate."""
        item, _ = as_item(item)
        mask = self.w1 - 1
        est = min(
            self.stage1[mix64(item ^ seed) & mask]
            for seed in self.hashes.seeds
        )
        if est < self.threshold:
            return est
        return self.threshold + self.stage2.query(item)

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    def update_many(self, items, values=None) -> None:
        """Batched two-stage filtering.

        All stage-1 indices hash in one vectorized pass.  Stage-1
        counters only grow and stop at the threshold, so an item whose
        counters are *all* saturated at batch start stays saturated --
        its updates spill wholesale with no stage-1 effect.  When the
        whole batch is saturated (the steady state on skewed streams),
        stage 1 is skipped entirely; otherwise the conservative walk
        runs in exact stream order for the unsaturated arrivals.
        Either way the spill stream is collected in stream order and
        handed to ``stage2.update_many`` in one call, which stage 2's
        own batch contract makes equivalent to per-item spills.
        """
        items, values = as_batch(items, values)
        n = len(items)
        if n == 0:
            return
        if int(values.min()) < 1:
            raise ValueError("Cold Filter is a Cash Register framework")
        idx2d = self.hashes.index_matrix(items, self.w1, self.d1)
        stage1_view = np.frombuffer(self.stage1, dtype=np.int64)
        threshold = self.threshold
        saturated = (stage1_view[idx2d] == threshold).all(axis=0)
        if saturated.all():
            # Pure pass-through: every arrival spills unchanged.
            self._spill_many(items, values)
            return
        stage1 = self.stage1
        spill_items: list[int] = []
        spill_values: list[int] = []
        cols = idx2d.T.tolist()
        for item, v, idxs, done in zip(items.tolist(), values.tolist(),
                                       cols, saturated.tolist()):
            if done:
                spill_items.append(item)
                spill_values.append(v)
                continue
            est = min(stage1[i] for i in idxs)
            total = est + v
            if total <= threshold:
                for i in idxs:
                    if stage1[i] < total:
                        stage1[i] = total
                continue
            for i in idxs:
                if stage1[i] < threshold:
                    stage1[i] = threshold
            spill_items.append(item)
            spill_values.append(total - threshold)
        if spill_items:
            self._spill_many(np.asarray(spill_items, dtype=np.int64),
                             np.asarray(spill_values, dtype=np.int64))

    def _spill_many(self, items: np.ndarray, values: np.ndarray) -> None:
        """Route an ordered spill stream into stage 2, batched when the
        stage-2 sketch has a batch door."""
        update_many = getattr(self.stage2, "update_many", None)
        if update_many is not None:
            update_many(items, values)
            return
        update = self.stage2.update
        for x, v in zip(items.tolist(), values.tolist()):
            update(x, v)

    @property
    def query_dtype(self) -> np.dtype:
        """Stage 2's answer dtype (stage-1 counts fit in any of them)."""
        return answer_dtype(self.stage2)

    def query_many(self, items) -> np.ndarray:
        """Batched query over the raw batch: stage-1 gather, then one
        stage-2 batch query for the hot items."""
        items = as_keys(items)
        idx2d = self.hashes.index_matrix(items, self.w1, self.d1)
        est = np.frombuffer(self.stage1, dtype=np.int64)[idx2d].min(axis=0)
        out = est.astype(self.query_dtype)
        hot = est >= self.threshold
        if hot.any():
            deep = batch_answers(self.stage2, items[hot])
            out[hot] = add_exact(deep, np.full_like(deep, self.threshold))
        return out

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Stage-1 bits plus whatever stage 2 reports."""
        stage1_bytes = (self.w1 * self.stage1_bits + 7) // 8
        return stage1_bytes + self.stage2.memory_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ColdFilter(w1={self.w1}, d1={self.d1}, "
                f"T={self.threshold}, stage2={self.stage2!r})")
