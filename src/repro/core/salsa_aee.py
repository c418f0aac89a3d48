"""SALSA + Additive Error Estimators (section V, Figs 16-17).

Merging and downsampling increase error through different channels:
merging adds collision noise from neighbours, downsampling adds
sampling noise everywhere.  SALSA AEE handles each overflow with
whichever is theoretically cheaper:

* a *non-largest* counter overflowing always merges (it does not move
  the sketch's error guarantee);
* when a counter of the current largest size ``s * 2^l`` overflows,
  compare the error increases
  ``delta_est = sqrt(2) * eps_est`` (downsampling, with
  ``eps_est = sqrt(2 ln(2/delta_est) / (N p))``) against
  ``delta_cms = delta^(-1/d) * 2^l / w`` (merging, Thm V.1's guarantee),
  and merge iff ``delta_cms <= delta_est``.

The paper sets ``delta = 4 * delta_est = 0.001``.

Two extras, both evaluated:

* **SALSA AEE_d** (Fig 16): downsample unconditionally on the first
  ``d`` overflow decisions, driving the sampling rate to ``2^-d`` for
  MaxSpeed-like throughput.
* **Counter splitting** (Fig 17): after downsampling, a merged counter
  whose halved value fits the next-smaller width may split back into
  two counters holding that value (max-merge only).
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.hashing import HashFamily, mix64
from repro.core.row import MAX, SIMPLE, SalsaRow
from repro.core.sketch import RowSketch
from repro.sketches.base import BatchOpsMixin, as_batch, as_item

#: Largest weight of one update: a weight is that many unit arrivals,
#: each drawing the sampler once ``p < 1`` (Cash Register: at least 1).
MAX_WEIGHT = 1 << 20


class SalsaAeeCountMin(RowSketch):
    """SALSA CMS with interleaved estimator downsampling.

    Parameters
    ----------
    w, d, s:
        SALSA CMS shape (max-merge rows).
    delta:
        Overall failure probability; ``delta_est = delta / 4`` per the
        paper's configuration.
    downsample_first:
        The ``d`` of SALSA AEE_d: number of initial overflow decisions
        that downsample unconditionally (0 = the accuracy variant).
    split:
        Enable counter splitting after downsampling.
    probabilistic:
        Binomial vs deterministic counter halving.
    """

    query_dtype = np.dtype(np.float64)  # scaled by 1 / p
    _rng_salt = 0x5A15AEE  # the sampler's RNG is seeded seed ^ salt

    def __init__(self, w: int, d: int = 4, s: int = 8, max_bits: int = 64,
                 delta: float = 0.001, downsample_first: int = 0,
                 split: bool = False, probabilistic: bool = True,
                 seed: int = 0, hash_family: HashFamily | None = None):
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        if downsample_first < 0:
            raise ValueError(f"downsample_first must be >= 0, "
                             f"got {downsample_first}")
        super().__init__([
            SalsaRow(w=w, s=s, max_bits=max_bits, merge=MAX,
                     encoding=SIMPLE)
            for _ in range(d)
        ], seed, hash_family)
        self.delta = delta
        self.delta_est = delta / 4
        self.split_enabled = split
        self.probabilistic = probabilistic
        self._forced_downsamples = downsample_first
        self.p = 1.0
        self.volume = 0
        self.top_level = 0
        self.max_level = self.rows[0].max_level
        self.downsample_events = 0
        self._rng = random.Random(seed ^ self._rng_salt)

    # ------------------------------------------------------------------
    # the overflow policy
    # ------------------------------------------------------------------
    def estimator_error(self) -> float:
        """eps_est = sqrt(2 ln(2/delta_est) / (N p)) (section V)."""
        if self.volume == 0:
            return 0.0
        return math.sqrt(
            2.0 * math.log(2.0 / self.delta_est) / (self.volume * self.p)
        )

    def merge_error(self) -> float:
        """eps_cms = delta^(-1/d) * 2^top_level / w (Thm V.1 guarantee)."""
        return self.delta ** (-1.0 / self.d) * (1 << self.top_level) / self.w

    def _prefer_merge(self) -> bool:
        """Merge iff delta_cms <= delta_est (and merging is possible)."""
        if self.top_level >= self.max_level:
            return False
        if self._forced_downsamples > 0:
            self._forced_downsamples -= 1
            return False
        delta_est = math.sqrt(2.0) * self.estimator_error()
        delta_cms = self.merge_error()
        return delta_cms <= delta_est

    def downsample(self) -> None:
        """Halve p, halve all counters, optionally split shrunk ones."""
        self.p /= 2.0
        self.downsample_events += 1
        rng = self._rng if self.probabilistic else None
        for row in self.rows:
            row.scale_down_half(rng)
        if self.split_enabled:
            for row in self.rows:
                # Split repeatedly until no counter can shrink further.
                changed = True
                while changed:
                    changed = False
                    for start, level, _v in list(row.counters()):
                        if level > 0 and row.try_split(start, level):
                            changed = True

    # ------------------------------------------------------------------
    def update(self, item: int, value: int = 1) -> None:
        """Process ``value`` (in ``[1, MAX_WEIGHT]``) arrivals of ``item``."""
        item, value = as_item(item, value)
        if not 1 <= value <= MAX_WEIGHT:
            raise ValueError(f"{type(self).__name__} takes weights in "
                             f"[1, MAX_WEIGHT = 2^20], got {value}")
        self.volume += value
        for _ in range(value):
            self._update_one(item)

    def _update_one(self, item: int, idxs: list[int] | None = None) -> None:
        # Sampling test first (this is where AEE's speed comes from:
        # dropped updates never compute a hash).
        if self.p < 1.0 and self._rng.random() >= self.p:
            return
        if idxs is None:
            # A loop: a comprehension's closure cells measured slower.
            mask = self.w - 1
            idxs = []
            for seed in self.hashes.seeds:
                idxs.append(mix64(item ^ seed) & mask)
        while True:
            # Would this increment overflow a largest-size counter?
            top_overflow = False
            for row, idx in zip(self.rows, idxs):
                level, start = row.locate(idx)
                value = row.read_block(start, level) + 1
                if row._fits(value, row.s << level):
                    continue
                if level >= self.top_level:
                    top_overflow = True
                    break
            if not top_overflow:
                break
            if self._prefer_merge():
                self.top_level += 1
                break
            self.downsample()
            # The arriving update survives the implied re-sampling
            # with probability 1/2.
            if self._rng.random() >= 0.5:
                return
        for row, idx in zip(self.rows, idxs):
            row.add(idx, 1)

    def query(self, item: int) -> float:
        """Minimum over rows, scaled back by the sampling rate."""
        return super().query(item) / self.p

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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"{super().__repr__()[:-1]}, p={self.p}, "
                f"split={self.split_enabled})")

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    def update_many(self, items, values=None) -> None:
        """Batched update with vectorized hashing.

        AEE's datapath is sequential in general -- the sampling RNG,
        overflow decisions, and downsampling events depend on arrival
        order.  But while ``p == 1`` the only order-dependent event is
        a *policy decision*, and one can only fire when a counter at
        level >= ``top_level`` overflows.  If every dirty superblock's
        total mass (live counters plus batch inflow) stays below the
        ``top_level`` counter capacity, no counter can ever reach a
        top-level overflow during the batch: no policy, no RNG draw,
        no downsampling.  Then merge-free superblocks collapse to one
        bulk apply per row and only the dirty ones replay
        in stream order (their sub-top merges are order-local), which
        is bit-identical to the per-item walk.

        Otherwise the batch walks items one by one with all ``d``
        hashes pre-computed vectorized.  RNG consumption is unchanged,
        so the result stays bit-identical to the per-item path.

        Once the sampler is active (p < 1), pre-hashing would pay for
        updates the sampling test discards -- the opposite of AEE's
        "dropped updates never compute a hash" design -- so the walk
        reverts to hashing lazily inside ``_update_one``.  A weight
        outside ``[1, MAX_WEIGHT]`` raises before anything moves.
        """
        items, values = as_batch(items, values)
        if len(items) == 0:
            return
        if int(values.min()) < 1 or int(values.max()) > MAX_WEIGHT:
            raise ValueError(f"{type(self).__name__} takes weights in "
                             "[1, MAX_WEIGHT = 2^20]")
        if self.p < 1.0:
            BatchOpsMixin.update_many(self, items, values)
            return
        idx_arrays = [self.hashes.index_many(items, row_id, self.w)
                      for row_id in range(self.d)]
        if self._try_batch_apply(idx_arrays, values):
            self.volume += sum(values.tolist())  # exact past int64
            return
        for item, v, *idxs in zip(items.tolist(), values.tolist(),
                                  *(arr.tolist() for arr in idx_arrays)):
            self.volume += v
            for _ in range(v):
                self._update_one(item, idxs)

    def _try_batch_apply(self, idx_arrays, values) -> bool:
        """Bulk-apply one batch if no policy decision can fire.

        Valid only at ``p == 1``.  First proves that no counter can
        overflow at level >= ``top_level`` (every dirty superblock's
        mass plus inflow fits the top-level capacity); sub-top merges
        are then the only side effects, and those are confined to their
        superblock.  Each row is checked first (``apply=False``), then
        its batch goes through :meth:`SalsaRow.add_many`, which
        bulk-applies the merge-free superblocks and replays the dirty
        ones in stream order.  Returns False (row state untouched)
        when the proof fails, sending the batch down the ordered walk.
        """
        rows = self.rows
        threshold = (1 << (self.s << self.top_level)) - 1
        for row, idxs in zip(rows, idx_arrays):
            dirty = row.add_batch_partial(idxs, values, apply=False)
            if dirty is None:
                continue
            top = row.max_level
            sb_ids = idxs >> top
            sel = dirty[sb_ids]
            inflow: dict[int, int] = {}
            for sb, v in zip(sb_ids[sel].tolist(), values[sel].tolist()):
                inflow[sb] = inflow.get(sb, 0) + v
            for sb, flow in inflow.items():
                # Its live counters plus inflow bound any counter a
                # superblock can produce.
                if sum(row._block_values(sb << top, top)) + flow > threshold:
                    return False
        for row, idxs in zip(rows, idx_arrays):
            row.add_many(idxs, values)
        return True

    def query_many(self, items) -> np.ndarray:
        """Batched query: one hash call per row over the raw batch,
        scaled by p."""
        return super().query_many(items) / self.p
