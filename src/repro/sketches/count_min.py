"""Count-Min Sketch with configurable fixed counter width.

The baseline of every figure: a ``d x w`` matrix of fixed-size
counters; each item owns one counter per row; queries return the
minimum (section III).  ``counter_bits`` configures the width
(4/8/16/32-bit variants appear in Figs 6, 19, 20); small counters
*saturate* -- "the counter is only incremented if it does not
overflow" -- which is exactly what makes them useless for heavy
hitters and what SALSA fixes.

The counters are :class:`~repro.sketches.base.MatrixSketch`'s
``(d, w)`` int64 matrix, so the batch door is a single pass through
the matrix kernels (:mod:`repro.sketches._kernels`): one stacked hash,
one scatter-add, one gather per batch -- no per-row Python loop.
"""

from __future__ import annotations

import numpy as np

from repro.hashing import mix64
from repro.sketches import _kernels
from repro.sketches.base import (
    BatchOpsMixin,
    MatrixSketch,
    StreamModel,
    aggregate_batch,
    as_batch,
    as_item,
    batch_sum_fits,
)


class CountMinSketch(MatrixSketch):
    """Fixed-width Count-Min Sketch (Strict Turnstile).

    Parameters are :class:`~repro.sketches.base.MatrixSketch`'s (paper
    default ``d=4``); counters saturate at ``2**counter_bits - 1``, and
    counter-wise merge/subtract need a shared ``hash_family``.

    Examples
    --------
    >>> cms = CountMinSketch(w=1024, d=4, seed=1)
    >>> for _ in range(5):
    ...     cms.update(42)
    >>> cms.query(42) >= 5
    True
    """

    model = StreamModel.STRICT_TURNSTILE

    # ------------------------------------------------------------------
    def update(self, item: int, value: int = 1) -> None:
        """Add ``value`` to each of the item's counters (saturating)."""
        item, value = as_item(item, value)
        mask = self.w - 1
        cap = self.cap
        cells = memoryview(self.mat)
        for row, seed in enumerate(self.hashes.seeds):
            cell = row, mix64(item ^ seed) & mask
            new = cells[cell] + value
            cells[cell] = cap if new > cap else (0 if new < 0 else new)

    # ------------------------------------------------------------------
    # batch pipeline (matrix kernels)
    # ------------------------------------------------------------------
    def update_many(self, items, values=None) -> None:
        """Fully vectorized batch update: one 2D kernel call.

        Positive inflows into saturating counters are order-free (the
        cap is absorbing), so duplicates pre-aggregate, all ``d`` rows
        hash in one stacked ``mix64_many`` call, and the counters take
        one matrix scatter-add.  Negative values (Strict Turnstile
        deletions) clamp at zero per step, which is order-sensitive,
        so they use the exact per-item fallback; so do >=63-bit
        counters and batches whose total inflow nears the int64
        scratch space.
        """
        items, values = as_batch(items, values)
        if len(items) == 0:
            return
        if (int(values.min()) < 0 or self.counter_bits >= 63
                or not batch_sum_fits(values)):
            BatchOpsMixin.update_many(self, items, values)
            return
        uniq, sums = aggregate_batch(items, values)
        idx2d = self.hashes.index_matrix(uniq, self.w)
        _kernels.scatter_add_capped(self.mat, idx2d, sums, self.cap)

    # ------------------------------------------------------------------
    def merge(self, other: "CountMinSketch") -> None:
        """Counter-wise sum: self becomes s(A u B).

        Standard linear-sketch merging; requires identical shape and
        shared hash functions.
        """
        self._check_compatible(other)
        # min(a, cap - b) + b == min(a + b, cap), with no int64 wrap
        # for counters near 2^63 - 1.
        np.minimum(self.mat, self.cap - other.mat, out=self.mat)
        self.mat += other.mat

    def subtract(self, other: "CountMinSketch") -> None:
        """Counter-wise difference: self becomes s(A \\ B).

        Valid in the Strict Turnstile model only "given a guarantee
        that B is a subset of A" (section V).
        """
        self._check_compatible(other)
        self.mat -= other.mat
