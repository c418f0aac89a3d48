"""SALSA Conservative Update Sketch (section V, Theorem V.3).

Same conservative rule as CUS -- on ``<x, v>`` each counter rises to
``max(counter, v + f̂_x)`` -- over max-merge SALSA rows.  Theorem V.3
shows by induction that every SALSA counter stays bounded by the
corresponding counter of the underlying coarse CUS, so

    f_x <= f̂_SALSA-CUS(x) <= f̂_CUS(x).
"""

from __future__ import annotations

from repro.hashing import HashFamily, mix64
from repro.core import _native
from repro.core.row import MAX, SIMPLE, SalsaRow
from repro.core.sketch import RowSketch, _only_vector
from repro.sketches.base import BatchOpsMixin, as_batch, as_item


class SalsaConservativeUpdate(RowSketch):
    """SALSA CUS (Cash Register, max-merge by necessity).

    Examples
    --------
    >>> sk = SalsaConservativeUpdate(w=1024, d=4, seed=1)
    >>> for _ in range(300):
    ...     sk.update(42)
    >>> sk.query(42) >= 300
    True
    """

    def __init__(self, w: int, d: int = 4, s: int = 8,
                 encoding: str = SIMPLE, max_bits: int = 64, seed: int = 0,
                 hash_family: HashFamily | None = None,
                 engine: str = "vector"):
        _only_vector(engine)  # perfbench/workloads.py passes "vector"
        super().__init__([
            SalsaRow(w=w, s=s, max_bits=max_bits, merge=MAX,
                     encoding=encoding)
            for _ in range(d)
        ], seed, hash_family)

    # ------------------------------------------------------------------
    def update(self, item: int, value: int = 1) -> None:
        """Conservative update over self-adjusting counters."""
        item, value = as_item(item, value)
        if value <= 0:
            raise ValueError(f"{type(self).__name__} is a Cash Register "
                             f"sketch; got value {value}")
        mask = self.w - 1
        cells = [(row, mix64(item ^ seed) & mask)
                 for row, seed in zip(self.rows, self.hashes.seeds)]
        counts = [row.read(j) for row, j in cells]
        target = min(counts) + value
        for (row, j), count in zip(cells, counts):
            if count < target:  # set_at_least leaves the others alone
                row.set_at_least(j, target)

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    def update_many(self, items, values=None) -> None:
        """Batched conservative update, bit-identical to per-item
        :meth:`update`.

        The conservative rule couples rows through the pre-update
        minimum, so the walk stays in stream order.  It runs natively
        (:func:`repro.core._native.cu_walk`), hashing each key in the
        same pass; without a C compiler (or on rows the kernel cannot
        read) it is the per-item loop.
        """
        items, values = as_batch(items, values)
        if len(items) == 0:
            return
        if int(values.min()) <= 0:
            raise ValueError(f"{type(self).__name__} is a Cash Register "
                             f"sketch; batch contains a non-positive value")
        if not _native.usable(self.rows):
            BatchOpsMixin.update_many(self, items, values)
            return
        _native.cu_walk(self, items, values)

    # In the class dict, where perfbench's tracer wraps it by name.
    query_many = RowSketch.query_many
