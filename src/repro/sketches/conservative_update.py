"""Conservative Update Sketch (CUS, Estan-Varghese).

CMS restricted to the Cash Register model, with the conservative
increment rule of section III: on update ``<x, v>`` each counter is set
to ``max(counter, v + f̂_x)`` where ``f̂_x`` is the pre-update estimate.
Counters never exceed what CMS would hold, so CUS dominates CMS in
accuracy at the cost of a pre-update query.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.hashing import HashFamily, mix64
from repro.sketches.base import (
    BatchOpsMixin,
    StreamModel,
    as_batch,
    as_item,
    batch_sum_fits,
    collapse_runs,
    batched_min_query,
    width_for_memory,
)


class ConservativeUpdateSketch(BatchOpsMixin):
    """Fixed-width Conservative Update Sketch (Cash Register only).

    Parameters mirror :class:`~repro.sketches.count_min.CountMinSketch`;
    small-counter variants saturate the same way.

    Examples
    --------
    >>> cus = ConservativeUpdateSketch(w=1024, d=4, seed=1)
    >>> for _ in range(3):
    ...     cus.update(7)
    >>> cus.query(7) >= 3
    True
    """

    model = StreamModel.CASH_REGISTER

    def __init__(self, w: int, d: int = 4, counter_bits: int = 32,
                 seed: int = 0, hash_family: HashFamily | None = None):
        if w < 1 or w & (w - 1):
            raise ValueError(f"w must be a positive power of two, got {w}")
        if counter_bits < 1 or counter_bits > 64:
            raise ValueError(f"counter_bits must be in [1, 64], got {counter_bits}")
        self.w = w
        self.d = d
        self.counter_bits = counter_bits
        self.cap = (1 << counter_bits) - 1
        self.hashes = hash_family if hash_family is not None else HashFamily(d, seed)
        self.rows = [array("q", [0]) * w for _ in range(d)]

    @classmethod
    def for_memory(cls, memory_bytes: int, d: int = 4, counter_bits: int = 32,
                   seed: int = 0) -> "ConservativeUpdateSketch":
        """Build the largest sketch fitting in ``memory_bytes``."""
        w = width_for_memory(memory_bytes, d, counter_bits)
        return cls(w=w, d=d, counter_bits=counter_bits, seed=seed)

    # ------------------------------------------------------------------
    def update(self, item: int, value: int = 1) -> None:
        """Conservative increment: raise only counters below v + f̂_x."""
        item, value = as_item(item, value)
        if value <= 0:
            raise ValueError(
                f"CUS is a Cash Register sketch; got update value {value}"
            )
        mask = self.w - 1
        rows = self.rows
        idxs = [mix64(item ^ seed) & mask for seed in self.hashes.seeds]
        est = min(row[idx] for row, idx in zip(rows, idxs))
        target = est + value
        if target > self.cap:
            target = self.cap
        for row, idx in zip(rows, idxs):
            if row[idx] < target:
                row[idx] = target

    def query(self, item: int) -> int:
        """Minimum of the item's counters."""
        item, _ = as_item(item)
        mask = self.w - 1
        est = None
        for row, seed in zip(self.rows, self.hashes.seeds):
            c = row[mix64(item ^ seed) & mask]
            if est is None or c < est:
                est = c
        return est

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    def update_many(self, items, values=None) -> None:
        """Batched conservative update.

        The pre-update minimum couples rows, so the walk stays ordered;
        consecutive duplicate runs fuse exactly
        (``update(x, a); update(x, b) == update(x, a + b)``, with the
        saturating cap absorbing) and all hashing vectorizes up front.
        """
        items, values = as_batch(items, values)
        if len(items) == 0:
            return
        if int(values.min()) <= 0:
            raise ValueError(
                "CUS is a Cash Register sketch; batch contains a "
                "non-positive value"
            )
        if not batch_sum_fits(values):
            BatchOpsMixin.update_many(self, items, values)
            return
        items, values = collapse_runs(items, values)
        idx_rows = [self.hashes.index_many(items, row_id, self.w).tolist()
                    for row_id in range(self.d)]
        rows = self.rows
        cap = self.cap
        for t, v in enumerate(values.tolist()):
            idxs = [idx_row[t] for idx_row in idx_rows]
            est = min(row[j] for row, j in zip(rows, idxs))
            target = est + v
            if target > cap:
                target = cap
            for row, j in zip(rows, idxs):
                if row[j] < target:
                    row[j] = target

    def query_many(self, items) -> np.ndarray:
        """Fully vectorized batch query over the raw batch (min over row
        gathers), answered as int64."""
        def row_values(row_id, keys):
            idxs = self.hashes.index_many(keys, row_id, self.w)
            return np.frombuffer(self.rows[row_id], dtype=np.int64)[idxs]

        return batched_min_query(items, self.d, row_values)

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Counter storage only."""
        return self.d * self.w * self.counter_bits // 8

    def zero_counters(self, row: int = 0) -> int:
        """Number of zero-valued counters in ``row`` (Linear Counting)."""
        return sum(1 for c in self.rows[row] if c == 0)

    def row_counters(self, row: int) -> list[int]:
        """A copy of one row's counter values."""
        return list(self.rows[row])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ConservativeUpdateSketch(w={self.w}, d={self.d}, "
                f"counter_bits={self.counter_bits})")
