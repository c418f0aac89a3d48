"""Counter-based heavy-hitter algorithms: Space-Saving and Misra-Gries.

The paper's task layer finds heavy hitters by pairing a sketch with a
min-heap (section III, "Finding Heavy Hitters").  The classic
*counter-based* alternative -- covered by the survey the paper uses for
its heavy-hitter methodology [48, Cormode & Hadjieleftheriou] -- keeps
an explicit table of (item, count) pairs instead of a hashed counter
matrix.  We implement both canonical members of that family so the
extension benches can put SALSA's heap-on-sketch approach side by side
with them:

* :class:`SpaceSaving` (Metwally et al.): on a miss, the minimum
  counter is *reassigned* to the new item and incremented, so every
  estimate over-counts by at most ``N / k``.
* :class:`MisraGries` (a.k.a. Frequent): on a miss with a full table,
  *all* counters are decremented, so every estimate under-counts by at
  most ``N / (k + 1)``.

Both are Cash-Register-only and deterministic.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.sketches.base import (
    BatchOpsMixin,
    StreamModel,
    aggregate_batch,
    answer_array,
    as_batch,
    as_item,
    batch_sum_fits,
    collapse_runs,
)

#: Bytes we charge per table entry: an 8-byte key, an 8-byte count and
#: amortized ~8 bytes of ordering structure (the C implementations in
#: [48] use a "stream summary" doubly-linked bucket list; we use a lazy
#: min-heap with the same amortized footprint).
ENTRY_BYTES = 24

#: The table entry an unmonitored key reads as (count 0).
_UNSEEN = (0,)


class SpaceSaving(BatchOpsMixin):
    """Space-Saving: the min counter is recycled for unseen items.

    The minimum is tracked with a *lazy lower-bound* min-heap of
    ``(count, seq, item)`` entries: hits never touch the heap (a heap
    entry's count is allowed to lag the table), and an eviction pops
    entries until the top matches its table state exactly -- lagging
    entries are re-pushed with their current count.  A miss therefore
    costs ``O(log k)`` amortized instead of the ``O(k)`` table scan,
    and a hit is a plain dict bump.  ``seq`` is the entry's
    table-insertion sequence number, which reproduces exactly the
    historical tie-breaking of ``min()`` over the insertion-ordered
    dict (earliest surviving entry wins among equal counts).

    Parameters
    ----------
    k:
        Number of monitored entries.  Guarantees
        ``f_x <= query(x) <= f_x + N/k`` and finds every item with
        frequency above ``N/k``.

    Examples
    --------
    >>> ss = SpaceSaving(k=2)
    >>> for item in [1, 1, 1, 2, 3]:
    ...     ss.update(item)
    >>> ss.query(1)
    3
    >>> sorted(item for item, _est, _err in ss.entries())[0]
    1
    """

    model = StreamModel.CASH_REGISTER

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        #: item -> [count, error, seq]: ``error`` is the count the
        #: entry inherited when it took over the minimum, ``seq`` its
        #: insertion sequence number (for exact min tie-breaking).
        self._table: dict[int, list] = {}
        #: lazy heap of (count, seq, item): counts are lower bounds of
        #: the table's, refreshed on pop; entries whose seq no longer
        #: matches the table are dead and discarded on pop.
        self._heap: list[tuple[int, int, int]] = []
        self._seq = 0
        #: adaptive gate for the batch pre-aggregation attempt: after a
        #: batch with misses, skip the (wasted) uniqueness pass for a
        #: while -- miss-heavy streams stay on the ordered walk.
        self._agg_backoff = 0
        self.n = 0

    def _bump(self, item: int, entry: list, value: int) -> None:
        """Add ``value`` to a monitored entry (its heap entry lags)."""
        entry[0] += value

    def _insert(self, item: int, count: int, error: int) -> None:
        """Monitor ``item`` with a fresh sequence number."""
        self._seq += 1
        self._table[item] = [count, error, self._seq]
        heapq.heappush(self._heap, (count, self._seq, item))

    def _evict_min(self) -> int:
        """Pop (and unmonitor) the true minimum; return its count.

        Heap counts are lower bounds, so when the top's count matches
        its table entry, every other entry's true ``(count, seq)`` key
        is at least the top's -- the top *is* the minimum, ties decided
        by insertion order exactly as ``min()`` over the dict was.
        """
        heap = self._heap
        table = self._table
        pop = heapq.heappop
        while True:
            count, seq, item = heap[0]
            entry = table.get(item)
            if entry is None or entry[2] != seq:
                pop(heap)  # dead: evicted (and possibly re-inserted)
            elif entry[0] == count:
                pop(heap)
                del table[item]
                return count
            else:
                # Lagging lower bound: refresh in place and re-sift.
                heapq.heapreplace(heap, (entry[0], seq, item))

    def update(self, item: int, value: int = 1) -> None:
        """Process ``<item, value>`` (value must be positive)."""
        item, value = as_item(item, value)
        if value <= 0:
            raise ValueError("Space-Saving is Cash-Register-only")
        self.n += value
        entry = self._table.get(item)
        if entry is not None:
            entry[0] += value
            return
        if len(self._table) < self.k:
            self._insert(item, value, 0)
            return
        floor = self._evict_min()
        self._insert(item, floor + value, floor)

    def query(self, item: int) -> int:
        """Over-estimate of ``item``'s frequency (0 if unmonitored)."""
        item, _ = as_item(item)
        return self._table.get(item, _UNSEEN)[0]

    def query_many(self, items) -> np.ndarray:
        """Batched :meth:`query`: one table read per key, as int64."""
        keys = as_batch(items)[0].tolist()
        get = self._table.get
        return answer_array((get(x, _UNSEEN)[0] for x in keys), len(keys),
                            self.query_dtype)

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    def update_many(self, items, values=None) -> None:
        """Batched update: pre-aggregate duplicates, then walk misses.

        Space-Saving is order-dependent only through *misses* (each
        recycles the current minimum, and insertion order decides
        future tie-breaks).  A batch whose keys are all currently
        monitored performs no miss whatever the order: its duplicate
        keys pre-aggregate fully and the table is bumped once per
        unique key, never touching the heap order-sensitively.
        Otherwise, consecutive duplicates still fuse exactly
        (``update(x, a); update(x, b) == update(x, a + b)``) and the
        collapsed stream is walked in order.
        """
        items, values = as_batch(items, values)
        if len(items) == 0:
            return
        if int(values.min()) <= 0:
            raise ValueError("Space-Saving is Cash-Register-only")
        if not batch_sum_fits(values):
            BatchOpsMixin.update_many(self, items, values)
            return
        table = self._table
        if table and self._agg_backoff == 0:
            uniq, sums = aggregate_batch(items, values)
            if len(uniq) <= len(table) and all(x in table
                                               for x in uniq.tolist()):
                for x, v in zip(uniq.tolist(), sums.tolist()):
                    self._bump(x, table[x], v)
                self.n += int(sums.sum())
                return
            self._agg_backoff = 16
        elif self._agg_backoff:
            self._agg_backoff -= 1
        items, values = collapse_runs(items, values)
        # Ordered walk with the per-update plumbing (validation, n
        # bookkeeping, method dispatch) hoisted out of the loop.
        k = self.k
        self.n += int(values.sum())
        if int(values.max()) == 1:
            # Unit-weight batches (the common Cash Register case) skip
            # the per-item value handling entirely.
            for x in items.tolist():
                entry = table.get(x)
                if entry is not None:
                    entry[0] += 1
                elif len(table) < k:
                    self._insert(x, 1, 0)
                else:
                    floor = self._evict_min()
                    self._insert(x, floor + 1, floor)
            return
        for x, v in zip(items.tolist(), values.tolist()):
            entry = table.get(x)
            if entry is not None:
                entry[0] += v
            elif len(table) < k:
                self._insert(x, v, 0)
            else:
                floor = self._evict_min()
                self._insert(x, floor + v, floor)

    def guaranteed(self, item: int) -> int:
        """Lower bound on ``item``'s frequency (count minus error)."""
        entry = self._table.get(item)
        return entry[0] - entry[1] if entry is not None else 0

    def entries(self) -> list[tuple[int, int, int]]:
        """Monitored ``(item, estimate, error)`` rows, largest first."""
        rows = [(item, count, err)
                for item, (count, err, _seq) in self._table.items()]
        rows.sort(key=lambda row: -row[1])
        return rows

    def heavy_hitters(self, phi: float) -> list[tuple[int, int]]:
        """Items whose estimate is at least ``phi * N``."""
        threshold = phi * self.n
        return [(item, est) for item, est, _err in self.entries()
                if est >= threshold]

    @property
    def memory_bytes(self) -> int:
        """Allocated table footprint (k entries whether used or not)."""
        return self.k * ENTRY_BYTES


class MisraGries(BatchOpsMixin):
    """Misra-Gries (Frequent): decrement-all on a miss with a full table.

    Parameters
    ----------
    k:
        Number of counters.  Guarantees
        ``f_x - N/(k+1) <= query(x) <= f_x``.

    Examples
    --------
    >>> mg = MisraGries(k=2)
    >>> for item in [1, 1, 1, 2, 3]:
    ...     mg.update(item)
    >>> 1 <= mg.query(1) <= 3
    True
    >>> mg.query(2)  # under-estimates, never over
    0
    """

    model = StreamModel.CASH_REGISTER

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._table: dict[int, int] = {}
        self.n = 0

    def update(self, item: int, value: int = 1) -> None:
        """Process ``<item, value>`` (value must be positive)."""
        item, value = as_item(item, value)
        if value <= 0:
            raise ValueError("Misra-Gries is Cash-Register-only")
        self.n += value
        remaining = value
        if item in self._table:
            self._table[item] += remaining
            return
        while remaining > 0:
            if len(self._table) < self.k:
                self._table[item] = remaining
                return
            # Decrement everything by the smallest count (weighted
            # generalization of decrement-by-one); drop zeros.
            floor = min(min(self._table.values()), remaining)
            remaining -= floor
            self._table = {key: count - floor
                           for key, count in self._table.items()
                           if count > floor}

    def query(self, item: int) -> int:
        """Under-estimate of ``item``'s frequency (0 if unmonitored)."""
        item, _ = as_item(item)
        return self._table.get(item, 0)

    def query_many(self, items) -> np.ndarray:
        """Batched :meth:`query`: one table read per key, as int64."""
        keys = as_batch(items)[0].tolist()
        get = self._table.get
        return answer_array((get(x, 0) for x in keys), len(keys),
                            self.query_dtype)

    def entries(self) -> list[tuple[int, int]]:
        """Monitored ``(item, estimate)`` rows, largest first."""
        return sorted(self._table.items(), key=lambda row: -row[1])

    def heavy_hitters(self, phi: float) -> list[tuple[int, int]]:
        """Items that *may* exceed ``phi * N`` (no false negatives)."""
        threshold = phi * self.n - self.n / (self.k + 1)
        return [(item, est) for item, est in self.entries()
                if est >= threshold]

    @property
    def memory_bytes(self) -> int:
        """Allocated table footprint (k entries whether used or not)."""
        return self.k * ENTRY_BYTES
