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

from repro.hashing import HashFamily
from repro.core.row import MAX, SIMPLE, SalsaRow
from repro.core.sketch import RowSketch, _check_smallest, _only_vector
from repro.core.tango import TangoRow
from repro.sketches.base import (
    BatchOpsMixin,
    aggregate_batch,  # unused here; perfbench/tracing.py wraps it by name
    as_batch,
)


class SalsaCountMin(RowSketch):
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
        Only ``"vector"``; any other value raises ``ValueError``.

    Examples
    --------
    >>> sk = SalsaCountMin(w=1024, d=4, s=8, seed=1)
    >>> for _ in range(300):
    ...     sk.update(42)
    >>> sk.query(42) >= 300
    True
    """

    def __init__(self, w: int, d: int = 4, s: int = 8, merge: str = MAX,
                 encoding: str = SIMPLE, max_bits: int = 64, seed: int = 0,
                 hash_family: HashFamily | None = None,
                 engine: str = "vector"):
        _only_vector(engine)  # perfbench/workloads.py passes "vector"
        super().__init__([
            SalsaRow(w=w, s=s, max_bits=max_bits, merge=merge,
                     encoding=encoding)
            for _ in range(d)
        ], seed, hash_family)

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    def update_many(self, items, values=None) -> None:
        """Batched update: one hash call and one :meth:`SalsaRow.add_many`
        per row, over the raw stream.

        Nothing is pre-aggregated and no batch forks: duplicates,
        Strict Turnstile deletions (sum merge) and weights up to
        ``2^63 - 1`` all go through each row's one batch door, which
        bulk-applies the merge-free superblocks (one native pass) and
        replays, in stream order, only the updates
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

    # In the class dict, where perfbench's tracer wraps it by name.
    query_many = RowSketch.query_many

    # ------------------------------------------------------------------
    @property
    def max_level(self) -> int:
        """Largest merge level currently present in any row."""
        return max(level for row in self.rows
                   for _s, level, _v in row.counters())

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


class TangoCountMin(RowSketch):
    """Tango CMS: the fine-grained-merging variant of Fig 7.

    Same interface as :class:`SalsaCountMin`; rows grow one slot at a
    time instead of doubling, and charge one overhead bit per counter
    (Tango cannot use the compact encoding).  ``max_bits`` is at least
    ``s``; counters grow to ``max_bits // s`` slots.
    """

    def __init__(self, w: int, d: int = 4, s: int = 8, merge: str = MAX,
                 max_bits: int = 64, seed: int = 0,
                 hash_family: HashFamily | None = None):
        if max_bits < s:
            raise ValueError(f"max_bits {max_bits} smaller than s {s}")
        super().__init__([
            TangoRow(w=w, s=s, max_slots=max_bits // s, merge=merge)
            for _ in range(d)
        ], seed, hash_family)

    def update_many(self, items, values=None) -> None:
        """The per-item loop, once the whole batch has passed the
        input checks (so a rejected batch moves no counter)."""
        items, values = as_batch(items, values)
        if len(items):
            _check_smallest(self, int(values.min()))
        BatchOpsMixin.update_many(self, items, values)
