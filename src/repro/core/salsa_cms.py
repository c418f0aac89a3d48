"""SALSA Count-Min Sketch (section V).

Identical to CMS until a counter overflows; then the counter merges
with its neighbour per the SALSA layout.  Merged counter values combine
by **sum** (safe in the Strict Turnstile model; estimates then equal a
CMS over the underlying coarser hashes, Thm V.1) or by **max** (Cash
Register only; tighter, Thm V.2).  Either way, for every item:

    f_x <= f̂_SALSA(x) <= f̂_CMS(x)

where the right-hand side is the underlying fixed-width CMS -- the
dominance that the property tests in ``tests/test_salsa_theorems.py``
verify on random streams.
"""

from __future__ import annotations

import numpy as np

from repro.hashing import HashFamily, mix64
from repro.core.row import COMPACT, MAX, SIMPLE, SUM, SalsaRow
from repro.core.tango import TangoRow
from repro.sketches.base import (
    BatchOpsMixin,
    StreamModel,
    aggregate_batch,  # unused here; perfbench/tracing.py wraps it by name
    as_batch,
    as_item,
    batched_min_query,
    width_for_memory,
)


def _check_smallest(sketch, value: int) -> None:
    """Max merge is exact only in the Cash Register model (Thm V.2):
    no update may be negative."""
    if value < 0 and sketch.merge_policy == MAX:
        raise ValueError(
            f"max-merge {type(sketch).__name__} is a Cash Register "
            f"sketch; got value {value}"
        )


class SalsaCountMin(BatchOpsMixin):
    """SALSA CMS.

    Parameters
    ----------
    w:
        Base slots per row (power of two).
    d:
        Rows (paper default 4).
    s:
        Base counter bits (paper default 8).
    merge:
        ``"max"`` (Cash Register; paper's preferred, Fig 5) or
        ``"sum"`` (Strict Turnstile-safe).
    encoding:
        ``"simple"`` (1 bit/counter) or ``"compact"`` (~0.594).
    max_bits:
        Counter growth ceiling (paper: up to 64).
    engine:
        Row storage backend: ``"vector"`` (native bulk path, the
        default) or ``"bitpacked"`` (the bit-exact reference).

    Examples
    --------
    >>> sk = SalsaCountMin(w=1024, d=4, s=8, seed=1)
    >>> for _ in range(300):
    ...     sk.update(42)
    >>> sk.query(42) >= 300
    True
    """

    model = StreamModel.CASH_REGISTER
    query_dtype = np.dtype(np.uint64)  # unsigned rows

    def __init__(self, w: int, d: int = 4, s: int = 8, merge: str = MAX,
                 encoding: str = SIMPLE, max_bits: int = 64, seed: int = 0,
                 hash_family: HashFamily | None = None,
                 engine: str = "vector"):
        self.w = w
        self.d = d
        self.s = s
        self.merge_policy = merge
        self.hashes = hash_family if hash_family is not None else HashFamily(d, seed)
        self.rows = [
            SalsaRow(w=w, s=s, max_bits=max_bits, merge=merge,
                     encoding=encoding, engine=engine)
            for _ in range(d)
        ]
        self.engine_name = self.rows[0].engine_name
        if merge == SUM:
            self.model = StreamModel.STRICT_TURNSTILE

    @classmethod
    def for_memory(cls, memory_bytes: int, d: int = 4, s: int = 8,
                   merge: str = MAX, encoding: str = SIMPLE,
                   seed: int = 0, engine: str = "vector"
                   ) -> "SalsaCountMin":
        """Largest SALSA CMS fitting in ``memory_bytes`` with overheads.

        The simple encoding charges 1 overhead bit per counter, the
        compact one ~0.594 (Appendix A).  Both engines charge the same
        bits, so the engine never changes the configured shape.
        """
        overhead = 1.0 if encoding == SIMPLE else 0.594
        w = width_for_memory(memory_bytes, d, s, overhead_bits=overhead)
        return cls(w=w, d=d, s=s, merge=merge, encoding=encoding, seed=seed,
                   engine=engine)

    # ------------------------------------------------------------------
    def update(self, item: int, value: int = 1) -> None:
        """Add ``value`` to each of the item's counters (merging on
        overflow).  Max-merge rows take no negative values."""
        item, value = as_item(item, value)
        _check_smallest(self, value)
        mask = self.w - 1
        for row, seed in zip(self.rows, self.hashes.seeds):
            row.add(mix64(item ^ seed) & mask, value)

    def query(self, item: int) -> int:
        """Minimum over rows of the (possibly merged) counter value."""
        item, _ = as_item(item)
        mask = self.w - 1
        est = None
        for row, seed in zip(self.rows, self.hashes.seeds):
            v = row.read(mix64(item ^ seed) & mask)
            if est is None or v < est:
                est = v
        return est

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    def update_many(self, items, values=None) -> None:
        """Batched update: one hash call and one :meth:`SalsaRow.add_many`
        per row, over the raw stream.

        Nothing is pre-aggregated and no batch forks: duplicates,
        Strict Turnstile deletions (sum merge) and weights up to
        ``2^63 - 1`` all go through each row's one batch door, which
        bulk-applies the merge-free superblocks (one native pass on the
        vector engine) and replays, in stream order, only the updates
        landing where a merge, saturation or clamp at zero could fire,
        so the result is bit-identical to the per-item path.
        """
        items, values = as_batch(items, values)
        if len(items) == 0:
            return
        _check_smallest(self, int(values.min()))
        for row_id, row in enumerate(self.rows):
            row.add_many(self.hashes.index_many(items, row_id, self.w),
                         values)

    def query_many(self, items) -> np.ndarray:
        """Batched query: one hash call and one gather per row over the
        raw batch, answered as uint64."""
        def row_values(row_id, keys):
            idxs = self.hashes.index_many(keys, row_id, self.w)
            return self.rows[row_id].read_many(idxs)

        return batched_min_query(items, self.d, row_values)

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Payload plus merge-encoding overhead, as charged in figures."""
        return sum((row.memory_bits + 7) // 8 for row in self.rows)

    @property
    def max_level(self) -> int:
        """Largest merge level currently present in any row."""
        return max(
            (level for row in self.rows
             for _s, level in row.engine.counters()),
            default=0,
        )

    def estimate_zero_counters(self, row: int = 0) -> float:
        """SALSA's Linear Counting heuristic (section V).

        The fraction ``f`` of s-bit counters that stayed zero among the
        *unmerged* ones extrapolates into merged counters: a merged
        counter of ``2^l`` slots has >= 1 non-zero slot, and
        optimistically ``f`` of the remaining ``2^l - 1`` are zero.
        """
        r = self.rows[row]
        zeros, unmerged = r.zero_base_slots_unmerged()
        if unmerged == 0:
            return 0.0
        f = zeros / unmerged
        return zeros + f * r.merged_subcounter_slack()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SalsaCountMin(w={self.w}, d={self.d}, s={self.s}, "
                f"merge={self.merge_policy!r})")


class TangoCountMin(BatchOpsMixin):
    """Tango CMS: the fine-grained-merging variant of Fig 7.

    Same interface as :class:`SalsaCountMin`; rows grow one slot at a
    time instead of doubling.
    """

    model = StreamModel.CASH_REGISTER
    query_dtype = np.dtype(np.uint64)  # unsigned rows

    def __init__(self, w: int, d: int = 4, s: int = 8, merge: str = MAX,
                 max_bits: int = 64, seed: int = 0,
                 hash_family: HashFamily | None = None,
                 engine: str | None = None):
        self.w = w
        self.d = d
        self.s = s
        self.merge_policy = merge
        self.hashes = hash_family if hash_family is not None else HashFamily(d, seed)
        max_slots = max(1, max_bits // s)
        self.rows = [
            TangoRow(w=w, s=s, max_slots=max_slots, merge=merge,
                     engine=engine)
            for _ in range(d)
        ]
        self.engine_name = self.rows[0].engine_name

    @classmethod
    def for_memory(cls, memory_bytes: int, d: int = 4, s: int = 8,
                   merge: str = MAX, seed: int = 0,
                   engine: str | None = None) -> "TangoCountMin":
        """Largest Tango CMS fitting in ``memory_bytes`` (1 overhead
        bit per counter; Tango cannot use the compact encoding)."""
        w = width_for_memory(memory_bytes, d, s, overhead_bits=1.0)
        return cls(w=w, d=d, s=s, merge=merge, seed=seed, engine=engine)

    def update(self, item: int, value: int = 1) -> None:
        """Add ``value`` to each of the item's counters.  Max-merge
        rows take no negative values."""
        item, value = as_item(item, value)
        _check_smallest(self, value)
        mask = self.w - 1
        for row, seed in zip(self.rows, self.hashes.seeds):
            row.add(mix64(item ^ seed) & mask, value)

    def update_many(self, items, values=None) -> None:
        """The per-item loop, once the whole batch has passed the
        input checks (so a rejected batch moves no counter)."""
        items, values = as_batch(items, values)
        if len(items):
            _check_smallest(self, int(values.min()))
        BatchOpsMixin.update_many(self, items, values)

    def query(self, item: int) -> int:
        """Minimum over rows."""
        item, _ = as_item(item)
        mask = self.w - 1
        est = None
        for row, seed in zip(self.rows, self.hashes.seeds):
            v = row.read(mix64(item ^ seed) & mask)
            if est is None or v < est:
                est = v
        return est

    def query_many(self, items) -> np.ndarray:
        """Batched query: one hash call per row, engine gathers,
        answered as uint64."""
        def row_values(row_id, keys):
            idxs = self.hashes.index_many(keys, row_id, self.w)
            return self.rows[row_id].read_many(idxs)

        return batched_min_query(items, self.d, row_values)

    @property
    def memory_bytes(self) -> int:
        """Payload plus one merge bit per counter."""
        return sum((row.memory_bits + 7) // 8 for row in self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TangoCountMin(w={self.w}, d={self.d}, s={self.s}, "
                f"merge={self.merge_policy!r})")
