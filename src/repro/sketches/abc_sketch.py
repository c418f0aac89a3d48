"""ABC sketch (Gong et al., IEEE Big Data 2017) -- reimplemented.

ABC lets an overflowing counter "borrow" bits from its pair-neighbour;
if the neighbour cannot spare them, the two counters *combine* into a
single larger counter.  Three bits per pair mark the combined state,
so starting from s-bit counters a combined pair can count only to
``2^(2s-3) - 1`` (8191 for s = 8), and pairs cannot combine more than
once.  Both limitations are the ones the SALSA paper demonstrates
(section VI: "ABC ... has a high error on heavy hitters as its
counters can at most double in size", Fig 9 region B).

The borrow/combine bookkeeping also makes every update and query pay
extra bit-twiddling that is not byte-aligned, which is why ABC is the
slowest scheme in Fig 8 -- an overhead our reimplementation inherits
naturally from the per-pair state machine.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.hashing import HashFamily, mix64
from repro.sketches.base import (
    BatchOpsMixin,
    StreamModel,
    aggregate_batch,
    as_batch,
    as_item,
    batch_sum_fits,
    batched_min_query,
    width_for_memory,
)

#: Per-pair states (encoded in the 3 overhead bits of the real scheme).
_SEPARATE = 0     # two independent s-bit counters
_COMBINED = 1     # one shared (2s-3)-bit counter for both indices


class AbcSketch(BatchOpsMixin):
    """ABC with Count-Min aggregation (d rows, min over rows).

    Parameters
    ----------
    w:
        Counters per row (power of two).
    d:
        Number of rows.
    s:
        Initial counter width in bits (authors' suggestion: 8).
    """

    model = StreamModel.CASH_REGISTER

    def __init__(self, w: int, d: int = 4, s: int = 8, seed: int = 0):
        if w < 2 or w & (w - 1):
            raise ValueError(f"w must be a power of two >= 2, got {w}")
        if s < 4:
            raise ValueError(f"s must be >= 4, got {s}")
        self.w = w
        self.d = d
        self.s = s
        self.sep_cap = (1 << s) - 1
        self.comb_cap = (1 << (2 * s - 3)) - 1
        self.hashes = HashFamily(d, seed)
        self.rows = [array("q", [0]) * w for _ in range(d)]
        self.states = [bytearray(w // 2) for _ in range(d)]

    @classmethod
    def for_memory(cls, memory_bytes: int, d: int = 4, s: int = 8,
                   seed: int = 0) -> "AbcSketch":
        """Largest ABC fitting in ``memory_bytes``.

        The 3 marker bits per pair cost 1.5 bits per counter on top of
        the s payload bits.
        """
        w = width_for_memory(memory_bytes, d, s, overhead_bits=1.5)
        return cls(w=max(2, w), d=d, s=s, seed=seed)

    # ------------------------------------------------------------------
    def _add(self, row: int, idx: int, value: int) -> None:
        vals = self.rows[row]
        states = self.states[row]
        pair = idx >> 1
        # The state read + branch below is the per-access overhead that
        # ABC's non-byte-aligned encoding forces on every operation.
        if states[pair] == _COMBINED:
            base = pair << 1
            new = vals[base] + value
            vals[base] = new if new <= self.comb_cap else self.comb_cap
            return
        new = vals[idx] + value
        if new <= self.sep_cap:
            vals[idx] = new
            return
        # Overflow: combine with the pair neighbour (sum semantics;
        # ABC counts the pair's total and cannot split it afterwards).
        buddy = idx ^ 1
        combined = new + vals[buddy]
        if combined > self.comb_cap:
            combined = self.comb_cap
        base = pair << 1
        vals[base] = combined
        vals[base | 1] = 0
        states[pair] = _COMBINED

    def update(self, item: int, value: int = 1) -> None:
        """Add ``value`` to the item's counter in every row."""
        item, value = as_item(item, value)
        if value < 1:
            raise ValueError("ABC is a Cash Register sketch")
        mask = self.w - 1
        for row, seed in enumerate(self.hashes.seeds):
            self._add(row, mix64(item ^ seed) & mask, value)

    def _read(self, row: int, idx: int) -> int:
        if self.states[row][idx >> 1] == _COMBINED:
            return self.rows[row][(idx >> 1) << 1]
        return self.rows[row][idx]

    def query(self, item: int) -> int:
        """Minimum over rows of the item's (possibly combined) counter."""
        item, _ = as_item(item)
        mask = self.w - 1
        est = None
        for row, seed in enumerate(self.hashes.seeds):
            v = self._read(row, mix64(item ^ seed) & mask)
            if est is None or v < est:
                est = v
        return est

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    def update_many(self, items, values=None) -> None:
        """Batched update with vectorized hashing and key aggregation.

        ABC's borrow/combine transitions depend only on per-slot inflow
        totals (positive inflows are monotone and combining is by sum),
        so collapsing duplicate keys and reordering across keys leaves
        the final pair states and values bit-identical to the per-item
        walk.
        """
        items, values = as_batch(items, values)
        if len(items) == 0:
            return
        if int(values.min()) < 1:
            raise ValueError("ABC is a Cash Register sketch")
        if not batch_sum_fits(values):
            BatchOpsMixin.update_many(self, items, values)
            return
        uniq, sums = aggregate_batch(items, values)
        agg = sums.tolist()
        for row_id in range(self.d):
            idxs = self.hashes.index_many(uniq, row_id, self.w)
            add = self._add
            for j, v in zip(idxs.tolist(), agg):
                add(row_id, j, v)

    def query_many(self, items) -> np.ndarray:
        """Batched query over the raw batch: one hash call per row,
        answered as int64."""
        def row_values(row_id, keys):
            idxs = self.hashes.index_many(keys, row_id, self.w)
            read = self._read
            return np.fromiter((read(row_id, j) for j in idxs.tolist()),
                               dtype=np.int64, count=len(keys))

        return batched_min_query(items, self.d, row_values)

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Payload bits plus the 3 marker bits per counter pair."""
        bits = self.d * (self.w * self.s + (self.w // 2) * 3)
        return (bits + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AbcSketch(w={self.w}, d={self.d}, s={self.s})"
