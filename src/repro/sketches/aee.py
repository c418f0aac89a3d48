"""Additive Error Estimator sketches (AEE, Ben Basat et al., INFOCOM 2020).

AEE shrinks counters by counting *sampled* updates: the sketch keeps a
global sampling probability ``p``; each update is recorded with
probability ``p`` and queries scale by ``1/p``.  When a counter
overflows, a *downsampling event* halves ``p`` and halves every
counter -- probabilistically (``Binomial(c, 1/2)``) or
deterministically (``floor(c/2)``) -- so no extra counter bits are
ever needed.

Two variants from the AEE paper, both used in Fig 16:

* **MaxAccuracy** -- downsample only when a counter actually overflows.
* **MaxSpeed** -- downsample proactively once enough updates have been
  processed, keeping ``p`` low so most updates skip the hash
  computations entirely (the source of AEE's speedup).
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.core.row import MAX, SalsaRow
from repro.core.sketch import RowSketch
from repro.hashing import mix64
from repro.sketches.base import (
    BatchOpsMixin,
    FixedWidthRows,
    as_batch,
    as_item,
)


class AeeSketch(FixedWidthRows, RowSketch):
    """AEE-augmented Count-Min sketch with small fixed counters.

    Each row is a max-merge SALSA row that never merges
    (:class:`~repro.sketches.base.FixedWidthRows`), so downsampling is
    :meth:`SalsaRow.scale_down_half <repro.core.row.SalsaRow.scale_down_half>`,
    the halving SALSA AEE runs too.  ``w`` must be a power of two
    ``>= 2``.

    Parameters
    ----------
    w, d:
        Sketch shape.
    counter_bits:
        Physical counter width in ``[1, 63]`` (AEE's point is this can
        be small; default 16).
    mode:
        ``"accuracy"`` (MaxAccuracy) or ``"speed"`` (MaxSpeed).
    probabilistic:
        Binomial halving when True, ``floor(c/2)`` when False.
    speed_interval:
        MaxSpeed only: downsample after this many *sampled* updates.
    """

    query_dtype = np.dtype(np.float64)  # the minimum scaled by 1 / p

    def __init__(self, w: int, d: int = 4, counter_bits: int = 16,
                 mode: str = "accuracy", probabilistic: bool = True,
                 speed_interval: int | None = None, seed: int = 0):
        if mode not in ("accuracy", "speed"):
            raise ValueError(f"mode must be 'accuracy' or 'speed', got {mode!r}")
        self._set_counter_bits(counter_bits)
        super().__init__([SalsaRow(w=w, s=counter_bits, max_bits=counter_bits,
                                   merge=MAX) for _ in range(d)], seed)
        self.mode = mode
        self.probabilistic = probabilistic
        # MaxSpeed default: keep roughly half the counter range in play
        # between proactive downsamplings.
        self.speed_interval = speed_interval or (self.cap + 1) * w // 4
        self.p = 1.0
        self.volume = 0          # total stream volume N seen
        self._sampled = 0        # sampled updates since last downsample
        self._rng = random.Random(seed ^ 0xAEE)

    # ------------------------------------------------------------------
    def downsample(self) -> None:
        """Halve the sampling probability and all counters."""
        self.p /= 2.0
        self._sampled = 0
        rng = self._rng if self.probabilistic else None
        for row in self.rows:
            row.scale_down_half(rng)

    def update(self, item: int, value: int = 1) -> None:
        """Record the update with probability p (unit updates)."""
        item, value = as_item(item, value)
        if value < 1:
            raise ValueError("AEE is a Cash Register sketch")
        self.volume += value
        for _ in range(value):
            self._update_one(item)

    def update_many(self, items, values=None) -> None:
        """The per-item walk, after checking the whole batch: a
        non-positive value raises before any counter moves."""
        items, values = as_batch(items, values)
        if len(values) and int(values.min()) < 1:
            raise ValueError("AEE is a Cash Register sketch")
        BatchOpsMixin.update_many(self, items, values)

    def _update_one(self, item: int) -> None:
        # The sampling test happens *before* any hashing -- this is
        # where AEE's speed advantage comes from.
        if self.p < 1.0 and self._rng.random() >= self.p:
            return
        if self.mode == "speed":
            self._sampled += 1
            if self._sampled >= self.speed_interval:
                self.downsample()
                # The arriving update is still recorded w.p. 1/2
                # (it survives the conceptual re-sampling).
                if self._rng.random() >= 0.5:
                    return
        # A counter at cap saturates (the row counts it) and stays put;
        # the other rows still take the update, then the sketch halves.
        mask = self.w - 1
        overflowed = False
        for row, seed in zip(self.rows, self.hashes.seeds):
            saturations = row.saturations
            row.add(mix64(item ^ seed) & mask, 1)
            overflowed |= row.saturations != saturations
        if overflowed:
            self.downsample()

    def query(self, item: int) -> float:
        """Estimate: min over rows, scaled back by 1/p."""
        return super().query(item) / self.p

    def query_many(self, items) -> np.ndarray:
        """The batched minimum, scaled back by 1/p."""
        return super().query_many(items) / self.p

    # ------------------------------------------------------------------
    def error_bound(self, delta_est: float) -> float:
        """The implied additive error N*eps_est of section V.

        ``eps_est = sqrt(2 p^-1 ln(2/delta_est)) / N``, so the bound is
        ``sqrt(2 N p^-1 ln(2/delta_est))``.
        """
        if not 0 < delta_est < 1:
            raise ValueError("delta_est must be in (0, 1)")
        if self.volume == 0:
            return 0.0
        return math.sqrt(2 * self.volume / self.p * math.log(2 / delta_est))
