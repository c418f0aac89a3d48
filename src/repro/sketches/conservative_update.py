"""Conservative Update Sketch (CUS, Estan-Varghese).

CMS restricted to the Cash Register model, with the conservative
increment rule of section III: on update ``<x, v>`` each counter is set
to ``max(counter, v + f̂_x)`` where ``f̂_x`` is the pre-update estimate.
Counters never exceed what CMS would hold, so CUS dominates CMS in
accuracy at the cost of a pre-update query.
"""

from __future__ import annotations

from repro.hashing import mix64
from repro.sketches.base import (
    BatchOpsMixin,
    MatrixSketch,
    StreamModel,
    as_batch,
    as_item,
    batch_sum_fits,
    collapse_runs,
)


class ConservativeUpdateSketch(MatrixSketch):
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

    def update(self, item: int, value: int = 1) -> None:
        """Conservative increment: raise only counters below v + f̂_x."""
        item, value = as_item(item, value)
        if value <= 0:
            raise ValueError(
                f"CUS is a Cash Register sketch; got update value {value}"
            )
        mask = self.w - 1
        keys = [(row, mix64(item ^ seed) & mask)
                for row, seed in enumerate(self.hashes.seeds)]
        cells = memoryview(self.mat)
        target = min([cells[cell] for cell in keys]) + value
        if target > self.cap:
            target = self.cap
        for cell in keys:
            if cells[cell] < target:
                cells[cell] = target

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
        idx_rows = self.hashes.index_matrix(items, self.w).tolist()
        rows = [memoryview(row) for row in self.mat]
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
