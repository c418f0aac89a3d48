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

:class:`AeeSketch` is SALSA AEE
(:class:`~repro.core.salsa_aee.SalsaAeeCountMin`) over rows that never
merge, with its own overflow rule.
"""

from __future__ import annotations

import numpy as np

from repro.core.salsa_aee import SalsaAeeCountMin
from repro.hashing import mix64
from repro.sketches.base import FixedWidthRows


class AeeSketch(FixedWidthRows, SalsaAeeCountMin):
    """AEE-augmented Count-Min sketch with small fixed counters.

    SALSA AEE over rows that never merge
    (:class:`~repro.sketches.base.FixedWidthRows`), so an overflow
    always downsamples.  ``w`` must be a power of two ``>= 2``.

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
        MaxSpeed only: downsample after this many *sampled* updates
        (``>= 1``; ``None`` picks a default from the shape).
    """

    # The minimum scaled by 1 / p, not FixedWidthRows' int64 view.
    query_dtype = np.dtype(np.float64)
    query_many = SalsaAeeCountMin.query_many
    _rng_salt = 0xAEE

    def __init__(self, w: int, d: int = 4, counter_bits: int = 16,
                 mode: str = "accuracy", probabilistic: bool = True,
                 speed_interval: int | None = None, seed: int = 0):
        if mode not in ("accuracy", "speed"):
            raise ValueError(f"mode must be 'accuracy' or 'speed', got {mode!r}")
        if speed_interval is not None and speed_interval < 1:
            raise ValueError(f"speed_interval must be >= 1, "
                             f"got {speed_interval}")
        self._set_counter_bits(counter_bits)
        super().__init__(w, d, s=counter_bits, max_bits=counter_bits,
                         probabilistic=probabilistic, seed=seed)
        self.mode = mode
        # MaxSpeed default: keep roughly half the counter range in play
        # between proactive downsamplings.
        self.speed_interval = speed_interval or (self.cap + 1) * w // 4
        self._sampled = 0        # sampled updates since last downsample

    def downsample(self) -> None:
        """SALSA AEE's downsample, restarting MaxSpeed's count."""
        super().downsample()
        self._sampled = 0

    def _update_one(self, item: int, idxs: list[int] | None = None) -> None:
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
        # Hashed inline: a comprehension's closure cells cost every call
        # ~8% of the per-item door in paired runs, dropped ones too.
        overflowed = False
        if idxs is None:
            mask = self.w - 1
            for row, seed in zip(self.rows, self.hashes.seeds):
                saturations = row.saturations
                row.add(mix64(item ^ seed) & mask, 1)
                overflowed |= row.saturations != saturations
        else:
            for row, idx in zip(self.rows, idxs):
                saturations = row.saturations
                row.add(idx, 1)
                overflowed |= row.saturations != saturations
        if overflowed:
            self.downsample()

    def _try_batch_apply(self, idx_arrays, values) -> bool:
        """SALSA AEE's bulk path at ``p == 1``, whose proof here reads
        "no add saturates"; in MaxSpeed, where every arrival is then
        sampled, the batch must also end below ``speed_interval``."""
        sampled = self._sampled
        if self.mode == "speed":
            sampled += sum(values.tolist())
        if sampled >= self.speed_interval or not super()._try_batch_apply(
                idx_arrays, values):
            return False
        self._sampled = sampled
        return True
