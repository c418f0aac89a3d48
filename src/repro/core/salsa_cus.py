"""SALSA Conservative Update Sketch (section V, Theorem V.3).

Same conservative rule as CUS -- on ``<x, v>`` each counter rises to
``max(counter, v + f̂_x)`` -- over max-merge SALSA rows.  Theorem V.3
shows by induction that every SALSA counter stays bounded by the
corresponding counter of the underlying coarse CUS, so

    f_x <= f̂_SALSA-CUS(x) <= f̂_CUS(x).
"""

from __future__ import annotations

import numpy as np

from repro.hashing import HashFamily, mix64
from repro.core import _native
from repro.core.row import MAX, SIMPLE, SalsaRow
from repro.sketches.base import (
    BatchOpsMixin,
    StreamModel,
    as_batch,
    as_item,
    batched_min_query,
    width_for_memory,
)


class SalsaConservativeUpdate(BatchOpsMixin):
    """SALSA CUS (Cash Register, max-merge by necessity).

    Examples
    --------
    >>> sk = SalsaConservativeUpdate(w=1024, d=4, seed=1)
    >>> for _ in range(300):
    ...     sk.update(42)
    >>> sk.query(42) >= 300
    True
    """

    model = StreamModel.CASH_REGISTER
    query_dtype = np.dtype(np.uint64)  # unsigned rows

    def __init__(self, w: int, d: int = 4, s: int = 8,
                 encoding: str = SIMPLE, max_bits: int = 64, seed: int = 0,
                 hash_family: HashFamily | None = None,
                 engine: str = "vector"):
        self.w = w
        self.d = d
        self.s = s
        self.hashes = hash_family if hash_family is not None else HashFamily(d, seed)
        self.rows = [
            SalsaRow(w=w, s=s, max_bits=max_bits, merge=MAX,
                     encoding=encoding, engine=engine)
            for _ in range(d)
        ]
        self.engine_name = self.rows[0].engine_name

    @classmethod
    def for_memory(cls, memory_bytes: int, d: int = 4, s: int = 8,
                   encoding: str = SIMPLE, seed: int = 0,
                   engine: str = "vector") -> "SalsaConservativeUpdate":
        """Largest SALSA CUS fitting in ``memory_bytes``."""
        overhead = 1.0 if encoding == SIMPLE else 0.594
        w = width_for_memory(memory_bytes, d, s, overhead_bits=overhead)
        return cls(w=w, d=d, s=s, encoding=encoding, seed=seed,
                   engine=engine)

    # ------------------------------------------------------------------
    def update(self, item: int, value: int = 1) -> None:
        """Conservative update over self-adjusting counters."""
        item, value = as_item(item, value)
        if value <= 0:
            raise ValueError(
                f"SALSA CUS is a Cash Register sketch; got value {value}"
            )
        mask = self.w - 1
        idxs = [mix64(item ^ seed) & mask for seed in self.hashes.seeds]
        est = min(row.read(idx) for row, idx in zip(self.rows, idxs))
        target = est + value
        for row, idx in zip(self.rows, idxs):
            row.set_at_least(idx, target)

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

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    def update_many(self, items, values=None) -> None:
        """Batched conservative update, bit-identical to per-item
        :meth:`update`.

        The conservative rule couples rows through the pre-update
        minimum, so the walk stays in stream order.  On vector rows it
        runs natively (:func:`repro.core._native.cu_walk`) over the
        indices of one :meth:`HashFamily.index_matrix` call; bit-packed
        rows, or a machine without a C compiler, take the per-item loop.
        """
        items, values = as_batch(items, values)
        if len(items) == 0:
            return
        if int(values.min()) <= 0:
            raise ValueError(
                "SALSA CUS is a Cash Register sketch; batch contains a "
                "non-positive value"
            )
        if not _native.usable(self.rows):
            BatchOpsMixin.update_many(self, items, values)
            return
        _native.cu_walk(self.rows, self.hashes.index_matrix(items, self.w,
                                                            self.d), values)

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
        """Payload plus merge-encoding overhead."""
        return sum((row.memory_bits + 7) // 8 for row in self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SalsaConservativeUpdate(w={self.w}, d={self.d}, s={self.s})"
