"""Count-Min Sketch with configurable fixed counter width.

The baseline of every figure: a ``d x w`` matrix of fixed-size
counters; each item owns one counter per row; queries return the
minimum (section III).  ``counter_bits`` configures the width
(4/8/16/32-bit variants appear in Figs 6, 19, 20); small counters
*saturate* -- "the counter is only incremented if it does not
overflow" -- which is exactly what makes them useless for heavy
hitters and what SALSA fixes.

Storage is one contiguous ``(d, w)`` int64 matrix so the batch door is
a single pass through the matrix kernels
(:mod:`repro.sketches._kernels`): one stacked hash, one scatter-add,
one gather per batch -- no per-row Python loop.
"""

from __future__ import annotations

import numpy as np

from repro.hashing import HashFamily, mix64
from repro.sketches import _kernels
from repro.sketches.base import (
    BatchOpsMixin,
    StreamModel,
    aggregate_batch,
    as_batch,
    as_item,
    batch_sum_fits,
    width_for_memory,
)


class CountMinSketch(BatchOpsMixin):
    """Fixed-width Count-Min Sketch (Strict Turnstile).

    Parameters
    ----------
    w:
        Row width (power of two).
    d:
        Number of rows (paper default: 4).
    counter_bits:
        Fixed counter width; counters saturate at ``2**counter_bits - 1``.
    seed:
        Seed for the row hash functions.
    hash_family:
        Optionally share hash functions with another sketch (required
        for counter-wise merge/subtract).

    Examples
    --------
    >>> cms = CountMinSketch(w=1024, d=4, seed=1)
    >>> for _ in range(5):
    ...     cms.update(42)
    >>> cms.query(42) >= 5
    True
    """

    model = StreamModel.STRICT_TURNSTILE

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
        if self.hashes.d < d:
            raise ValueError("hash family has fewer rows than the sketch")
        self.mat = np.zeros((d, w), dtype=np.int64)

    @property
    def rows(self) -> list[np.ndarray]:
        """Per-row counter views (back-compat with the list-of-rows API)."""
        return list(self.mat)

    @classmethod
    def for_memory(cls, memory_bytes: int, d: int = 4, counter_bits: int = 32,
                   seed: int = 0) -> "CountMinSketch":
        """Build the largest sketch fitting in ``memory_bytes``."""
        w = width_for_memory(memory_bytes, d, counter_bits)
        return cls(w=w, d=d, counter_bits=counter_bits, seed=seed)

    # ------------------------------------------------------------------
    def update(self, item: int, value: int = 1) -> None:
        """Add ``value`` to each of the item's counters (saturating)."""
        item, value = as_item(item, value)
        mask = self.w - 1
        cap = self.cap
        for row, seed in zip(self.mat, self.hashes.seeds):
            idx = mix64(item ^ seed) & mask
            new = int(row[idx]) + value
            row[idx] = cap if new > cap else (0 if new < 0 else new)

    def query(self, item: int) -> int:
        """Minimum of the item's counters (an over-estimate of f_x)."""
        item, _ = as_item(item)
        mask = self.w - 1
        est = None
        for row, seed in zip(self.mat, self.hashes.seeds):
            c = int(row[mix64(item ^ seed) & mask])
            if est is None or c < est:
                est = c
        return est

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
        idx2d = self.hashes.index_matrix(uniq, self.w, self.d)
        _kernels.scatter_add_capped(self.mat, idx2d, sums, self.cap)

    def query_many(self, items) -> np.ndarray:
        """Fully vectorized batch query over the raw batch: one gather +
        min over rows, answered as int64."""
        items, _ = as_batch(items)
        idx2d = self.hashes.index_matrix(items, self.w, self.d)
        return _kernels.min_over_rows(_kernels.gather_2d(self.mat, idx2d))

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Counter storage only: fixed-width sketches have no overhead."""
        return self.d * self.w * self.counter_bits // 8

    def zero_counters(self, row: int = 0) -> int:
        """Number of zero-valued counters in ``row`` (Linear Counting)."""
        return int((self.mat[row] == 0).sum())

    def row_counters(self, row: int) -> list[int]:
        """A copy of one row's counter values."""
        return self.mat[row].tolist()

    def merge(self, other: "CountMinSketch") -> None:
        """Counter-wise sum: self becomes s(A u B).

        Standard linear-sketch merging; requires identical shape and
        shared hash functions.
        """
        self._check_compatible(other)
        np.minimum(self.cap, self.mat + other.mat, out=self.mat)

    def subtract(self, other: "CountMinSketch") -> None:
        """Counter-wise difference: self becomes s(A \\ B).

        Valid in the Strict Turnstile model only "given a guarantee
        that B is a subset of A" (section V).
        """
        self._check_compatible(other)
        self.mat -= other.mat

    def _check_compatible(self, other: "CountMinSketch") -> None:
        if (self.w, self.d) != (other.w, other.d):
            raise ValueError("sketch shapes differ")
        if not self.hashes.same_functions(other.hashes):
            raise ValueError("sketches do not share hash functions")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CountMinSketch(w={self.w}, d={self.d}, "
                f"counter_bits={self.counter_bits})")
