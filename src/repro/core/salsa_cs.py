"""SALSA Count Sketch (section V).

Counters hold *signed* values, so SALSA CS stores them in
**sign-magnitude** form (most significant bit = sign): unlike two's
complement, the overflow event is then symmetric in sign, which is
exactly what Lemma V.4 needs to prove unbiasedness -- conditioned on a
merge having happened, the absorbed neighbour's value is symmetric
around zero and contributes nothing in expectation.  Lemma V.5 further
shows each row's variance is no larger than the underlying fixed-width
CS's, so the usual Chebyshev + median analysis carries over.

Merging must be **sum** ("max-merge may not be correct as counters may
have opposite signs").
"""

from __future__ import annotations

import numpy as np

from repro.hashing import HashFamily, mix64
from repro.core.row import SIMPLE, SUM, SalsaRow
from repro.core.sketch import RowSketch
from repro.sketches.base import (
    BatchOpsMixin,
    as_batch,
    as_item,
    batched_median_query,
    median,
    median_dtype,
)

_INT64_MIN = -(1 << 63)


class SalsaCountSketch(RowSketch):
    """SALSA CS (Turnstile, sign-magnitude, sum-merge).

    Examples
    --------
    >>> sk = SalsaCountSketch(w=1024, d=5, seed=1)
    >>> sk.update(42, 500)
    >>> sk.update(42, -200)
    >>> sk.query(42)
    300
    """

    def __init__(self, w: int, d: int = 5, s: int = 8,
                 encoding: str = SIMPLE, max_bits: int = 64, seed: int = 0,
                 hash_family: HashFamily | None = None):
        super().__init__([
            SalsaRow(w=w, s=s, max_bits=max_bits, merge=SUM, signed=True,
                     encoding=encoding)
            for _ in range(d)
        ], seed, hash_family)

    @classmethod
    def for_memory(cls, memory_bytes: int, d: int = 5, **kwargs):
        """Largest SALSA CS in ``memory_bytes``; 5 rows by default."""
        return super().for_memory(memory_bytes, d=d, **kwargs)

    # ------------------------------------------------------------------
    def update(self, item: int, value: int = 1) -> None:
        """Add ``g_i(x) * value`` to the item's counter in each row."""
        item, value = as_item(item, value)
        mask = self.w - 1
        for row, seed in zip(self.rows, self.hashes.seeds):
            h = mix64(item ^ seed)  # the slot's low bits, the sign's top one
            row.add(h & mask, value if h >> 63 else -value)

    def query(self, item: int) -> float:
        """Median over rows of ``counter * g_i(x)``."""
        item, _ = as_item(item)
        mask = self.w - 1
        votes = []
        for row, seed in zip(self.rows, self.hashes.seeds):
            h = mix64(item ^ seed)
            c = row.read(h & mask)
            votes.append(c if h >> 63 else -c)
        return median(votes)

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    def update_many(self, items, values=None) -> None:
        """Batched signed update over sign-magnitude SALSA rows.

        Each row hashes the raw stream once, signs every value by its
        hash bit and hands the signed stream, deletions included, to
        :meth:`SalsaRow.add_many`: merge-free superblocks bulk-apply
        and only the updates landing where a merge or saturation could
        fire replay in stream order, bit-identical to the per-item
        path.  A value of ``-2^63`` has no int64 negation, so a batch
        holding one takes the per-item loop.
        """
        items, values = as_batch(items, values)
        if len(items) == 0:
            return
        if int(values.min()) == _INT64_MIN:
            BatchOpsMixin.update_many(self, items, values)
            return
        mask = np.uint64(self.w - 1)
        for row_id, row in enumerate(self.rows):
            raw = self.hashes.raw_many(items, row_id)
            row.add_many((raw & mask).astype(np.int64),
                         np.where(raw >> np.uint64(63), values, -values))

    @property
    def query_dtype(self) -> np.dtype:
        """int64 for odd ``d``, float64 (a mean of two votes) for even."""
        return median_dtype(self.d)

    def query_many(self, items) -> np.ndarray:
        """Batched query: per-row votes gathered once over the raw
        batch, exact median."""
        def row_votes(row_id, keys):
            raw = self.hashes.raw_many(keys, row_id)
            idxs = (raw & np.uint64(self.w - 1)).astype(np.int64)
            vals = self.rows[row_id].read_many(idxs)
            return np.where(raw >> np.uint64(63), vals, -vals)

        return batched_median_query(items, self.d, row_votes)

    def row_estimate(self, item: int, row: int) -> int:
        """Single-row unbiased estimate (used by SALSA UnivMon)."""
        h = self.hashes.raw(item, row)
        c = self.rows[row].read(h & (self.w - 1))
        return c if h >> 63 else -c
