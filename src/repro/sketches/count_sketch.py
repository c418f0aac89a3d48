"""Count Sketch (CS, Charikar-Chen-Farach-Colton).

Works in the general Turnstile model and provides an L2 guarantee
(section III): each row adds ``g_i(x) * v`` to the item's counter, the
estimate is the median over rows of ``counter * g_i(x)``.  The sign
hash "unbiases" collision noise, so each row is an unbiased estimator.

The baseline uses 32-bit two's-complement counters (sign-magnitude is
a SALSA-specific change, see :mod:`repro.core.salsa_cs`); values are
clamped to the representable range, which never binds in practice.

The counters are :class:`~repro.sketches.base.MatrixSketch`'s
``(d, w)`` int64 matrix; batch updates and queries go through the
matrix kernels (:mod:`repro.sketches._kernels`), and
:meth:`CountSketch.update_many_with_estimates` additionally exposes
the *on-arrival* batch door (post-update estimates per arrival) that
UnivMon's heap maintenance needs.
"""

from __future__ import annotations

import numpy as np

from repro.hashing import HashFamily, mix64
from repro.sketches import _kernels
from repro.sketches.base import (
    BatchOpsMixin,
    MatrixSketch,
    StreamModel,
    aggregate_batch,
    as_batch,
    as_item,
    batch_sum_fits,
    median,
    median_dtype,
)


class CountSketch(MatrixSketch):
    """Fixed-width Count Sketch (Turnstile).

    Parameters are :class:`~repro.sketches.base.MatrixSketch`'s, with
    ``d=5`` (the paper's default for CS, to take a clean median) and
    two's-complement counters of ``[-2^(b-1), 2^(b-1) - 1]``.

    Examples
    --------
    >>> cs = CountSketch(w=1024, d=5, seed=1)
    >>> for _ in range(10):
    ...     cs.update(3)
    >>> 0 <= cs.query(3) <= 20
    True
    """

    model = StreamModel.TURNSTILE
    signed = True

    def __init__(self, w: int, d: int = 5, counter_bits: int = 32,
                 seed: int = 0, hash_family: HashFamily | None = None):
        super().__init__(w, d, counter_bits, seed, hash_family)
        self.max_val, self.min_val = self.cap, -self.cap - 1

    def update(self, item: int, value: int = 1) -> None:
        """Add ``g_i(x) * value`` to the item's counter in each row."""
        item, value = as_item(item, value)
        mask = self.w - 1
        lo, hi = self.min_val, self.max_val
        cells = memoryview(self.mat)
        for row, seed in enumerate(self.hashes.seeds):
            h = mix64(item ^ seed)
            cell = row, h & mask
            new = cells[cell] + (value if h >> 63 else -value)
            cells[cell] = hi if new > hi else (lo if new < lo else new)

    def query(self, item: int) -> float:
        """Median over rows of ``counter * g_i(x)``."""
        item, _ = as_item(item)
        mask = self.w - 1
        cells = memoryview(self.mat)
        votes = []
        for row, seed in enumerate(self.hashes.seeds):
            h = mix64(item ^ seed)
            c = cells[row, h & mask]
            votes.append(c if h >> 63 else -c)
        return median(votes)

    def row_estimate(self, item: int, row: int) -> int:
        """Single-row unbiased estimate (used by UnivMon internals)."""
        h = mix64(item ^ self.hashes.seeds[row])
        c = int(self.mat[row, h & (self.w - 1)])
        return c if h >> 63 else -c

    # ------------------------------------------------------------------
    # batch pipeline (matrix kernels)
    # ------------------------------------------------------------------
    def _batch_fast_ok(self, values: np.ndarray) -> bool:
        """Whether the vectorized kernels may run on this batch."""
        return self.counter_bits < 63 and batch_sum_fits(values)

    def update_many(self, items, values=None) -> None:
        """Vectorized batch update with a per-row clamp guard.

        A key keeps one sign per row, so duplicates aggregate; the
        signed deltas then scatter through one 2D kernel call.
        Clamping at the counter range is the only order-sensitive
        step, so a row is vectorized only when current +/- total
        absolute inflow provably stays in range for every touched
        counter (true except for deliberately tiny counters);
        otherwise that row replays in stream order.
        """
        items, values = as_batch(items, values)
        if len(items) == 0:
            return
        if int(values.min()) < 0 or not self._batch_fast_ok(values):
            BatchOpsMixin.update_many(self, items, values)
            return
        uniq, sums = aggregate_batch(items, values)
        raw2d = self.hashes.raw_matrix(uniq, self.d)
        idx2d = (raw2d & np.uint64(self.w - 1)).astype(np.int64)
        signed2d = np.where(raw2d >> np.uint64(63), sums, -sums)
        deferred = _kernels.scatter_add_signed(
            self.mat, idx2d, signed2d, sums, self.min_val, self.max_val)
        if deferred.any():
            self._replay_rows(np.flatnonzero(deferred), items, values)

    def _replay_rows(self, row_ids, items: np.ndarray,
                     values: np.ndarray) -> None:
        """Exact stream-order replay of the full batch in given rows."""
        lo, hi = self.min_val, self.max_val
        vals = values.tolist()
        for row_id in row_ids:
            row = memoryview(self.mat[row_id])
            raw = self.hashes.raw_many(items, row_id)
            idxs = (raw & np.uint64(self.w - 1)).astype(np.int64)
            top = (raw >> np.uint64(63)).astype(bool)
            for j, positive, v in zip(idxs.tolist(), top.tolist(), vals):
                new = row[j] + (v if positive else -v)
                row[j] = hi if new > hi else (lo if new < lo else new)

    def update_many_with_estimates(self, items, values=None):
        """The on-arrival batch door: apply the batch in stream order
        and return each arrival's *post-update* estimate.

        Returns a length-``n`` array matching what interleaved
        ``update(x); query(x)`` calls would have produced, computed
        with one ordered scatter (:func:`_kernels.scatter_add_running`)
        instead of a per-item loop.  Returns ``None`` without touching
        any state when a clamp could fire mid-batch (or hashing is not
        vectorizable) -- callers then take their exact per-item walk.
        """
        items, values = as_batch(items, values)
        n = len(items)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if not self._batch_fast_ok(values):
            return None
        raw2d = self.hashes.raw_matrix(items, self.d)
        idx2d = (raw2d & np.uint64(self.w - 1)).astype(np.int64)
        positive = (raw2d >> np.uint64(63)) != 0
        signed2d = np.where(positive, values, -values)
        mags = np.abs(values)
        flat = _kernels.flat_indices(idx2d, self.w)
        uidx, mag = _kernels._aggregate_flat(
            flat, np.broadcast_to(mags, idx2d.shape).ravel())
        old = self.mat.reshape(-1)[uidx]
        if bool(np.any(old + mag > self.max_val)) \
                or bool(np.any(old - mag < self.min_val)):
            return None
        running = _kernels.scatter_add_running(self.mat, idx2d, signed2d)
        return _kernels.median_over_rows(np.where(positive, running, -running))

    @property
    def query_dtype(self) -> np.dtype:
        """int64 for odd ``d``, float64 (a mean of two votes) for even."""
        return median_dtype(self.d)

    def query_many(self, items) -> np.ndarray:
        """Vectorized batch query over the raw batch: exact median over
        one 2D gather."""
        items, _ = as_batch(items)
        raw2d = self.hashes.raw_matrix(items, self.d)
        idx2d = (raw2d & np.uint64(self.w - 1)).astype(np.int64)
        vals = _kernels.gather_2d(self.mat, idx2d)
        votes = np.where(raw2d >> np.uint64(63), vals, -vals)
        return _kernels.median_over_rows(votes)

    # ------------------------------------------------------------------
    def merge(self, other: "CountSketch") -> None:
        """Counter-wise sum: self becomes s(A u B), each counter clamped
        to ``[min_val, max_val]`` as the per-item door clamps it."""
        self._check_compatible(other)
        self._fold(other.mat, +1)

    def subtract(self, other: "CountSketch") -> None:
        """Counter-wise difference: self becomes s(A \\ B), clamped as
        :meth:`merge` is.

        CS is a Turnstile sketch, so general subtraction is valid.
        """
        self._check_compatible(other)
        self._fold(other.mat, -1)

    def _fold(self, b: np.ndarray, sign: int) -> None:
        """``mat += sign * b``, saturating at ``[min_val, max_val]``
        with no int64 wrap: each counter moves by ``b``'s positive part,
        then by its negative part, and ``min(a, hi - up) + up`` (or its
        mirror) never leaves int64 for operands within the range."""
        a, lo, hi = self.mat, self.min_val, self.max_val
        up, down = np.maximum(b, 0), np.minimum(b, 0)
        if sign < 0:
            np.maximum(a, lo + up, out=a)
            a -= up
            np.minimum(a, hi + down, out=a)
            a -= down
        else:
            np.minimum(a, hi - up, out=a)
            a += up
            np.maximum(a, lo - down, out=a)
            a += down
