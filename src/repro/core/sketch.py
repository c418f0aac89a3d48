"""The shared base of the SALSA-family sketches (sections IV-V).

SALSA CMS, CUS, CS and AEE and Tango CMS are one design: ``d`` rows of
self-adjusting counters (:class:`~repro.core.row.SalsaRow` or
:class:`~repro.core.tango.TangoRow`) under one :class:`HashFamily`.
The fixed-width CMS, CUS and AEE are too, on rows that never merge.
They differ only in how an update reaches the rows and how row reads
combine.  :class:`RowSketch` holds everything else once: the shape and
hashes, the per-item hashing behind :func:`as_item`, the Count-Min
update, the min-over-rows query on both doors, the stream model the
rows admit, memory sizing and ``memory_bytes``.

A new sketch of the family builds its rows, passes them to
``RowSketch.__init__``, and defines ``update_many`` -- plus its own
``update`` unless it follows the Count-Min rule, and its own query
unless rows combine by minimum.

Examples
--------
>>> from repro.core import SalsaCountMin
>>> sk = SalsaCountMin(w=64, d=2, merge="sum", seed=1)
>>> sk.update(7, 300)
>>> sk.query(7), sk.model.value, sk.memory_bytes
(300, 'strict_turnstile', 144)
"""

from __future__ import annotations

import numpy as np

from repro.hashing import HashFamily, mix64
from repro.core import _native
from repro.core.row import MAX, SUM
from repro.sketches.base import (
    BatchOpsMixin,
    StreamModel,
    as_item,
    as_keys,
    batched_min_query,
    row_hashes,
    width_for_memory,
)


def _check_smallest(sketch, value: int) -> None:
    """Max merge is exact only in the Cash Register model (Thm V.2):
    no update may be negative."""
    if value < 0 and sketch.rows[0].merge == MAX:
        raise ValueError(
            f"max-merge {type(sketch).__name__} is a Cash Register "
            f"sketch; got value {value}"
        )


def _only_vector(engine: str) -> None:
    """The ``engine`` keyword of :class:`SalsaCountMin` and
    :class:`SalsaConservativeUpdate`: rows have one storage, named
    ``"vector"``, and any other name raises ``ValueError``."""
    if engine != "vector":
        raise ValueError(f"unknown row engine {engine!r}; rows have one "
                         f"storage, 'vector'")


class RowSketch(BatchOpsMixin):
    """``d`` self-adjusting counter rows under one hash family.

    Parameters
    ----------
    rows:
        The ``d`` rows, all of one class, shape and merge policy.
    seed, hash_family:
        The rows' hash functions: ``hash_family`` if given (sketches
        that merge must share one), else ``HashFamily(d, seed)``.
    """

    query_dtype = np.dtype(np.uint64)  # unsigned rows

    def __init__(self, rows: list, seed: int = 0,
                 hash_family: HashFamily | None = None):
        self.hashes = row_hashes(len(rows), seed, hash_family)
        self.rows = rows
        row = rows[0]
        self.w, self.d, self.s = row.w, len(rows), row.s
        if row.signed:
            self.model = StreamModel.TURNSTILE
        elif row.merge == SUM:
            self.model = StreamModel.STRICT_TURNSTILE
        else:
            self.model = StreamModel.CASH_REGISTER

    @classmethod
    def for_memory(cls, memory_bytes: int, d: int = 4, s: int = 8,
                   **kwargs):
        """Largest sketch whose :attr:`memory_bytes` (whole-byte rows,
        the exact encoding) fits in ``memory_bytes``: the width starts
        from the counters' payload alone and halves until the encoded
        sketch fits.  Other keyword arguments go to the constructor."""
        w = width_for_memory(memory_bytes, d, s)
        while True:
            sketch = cls(w=w, d=d, s=s, **kwargs)
            if sketch.memory_bytes <= memory_bytes:
                return sketch
            if w == 2:
                raise ValueError(f"{memory_bytes}B cannot hold d={d} rows "
                                 f"of {s}-bit counters")
            del sketch  # so the too-wide rows never coexist with the next
            w //= 2

    # Every per-item door hashes inline: ``repro run`` calls both per
    # arrival, and a helper's list of hashes cost them ~12% in paired runs.
    def update(self, item: int, value: int = 1) -> None:
        """The Count-Min rule: add ``value`` to each of the item's
        counters (merging on overflow).  Max-merge rows take no
        negative values."""
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

    def query_many(self, items) -> np.ndarray:
        """Batched query over the raw batch, answered as uint64: on
        unsigned rows one native pass hashes, gathers and takes the
        minimum (:func:`repro.core._native.min_query`); otherwise
        one hash call and one gather per row."""
        if not self.rows[0].signed and _native.usable(self.rows):
            return _native.min_query(self, as_keys(items))

        def row_values(row_id, keys):
            idxs = self.hashes.index_many(keys, row_id, self.w)
            return self.rows[row_id].read_many(idxs)

        return batched_min_query(items, self.d, row_values)

    @property
    def memory_bytes(self) -> int:
        """Payload plus merge-encoding overhead, as charged in figures."""
        return sum((row.memory_bits + 7) // 8 for row in self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"{type(self).__name__}(w={self.w}, d={self.d}, s={self.s}, "
                f"merge={self.rows[0].merge!r})")
