"""Count-Min Sketch with configurable fixed counter width.

The baseline of every figure: a ``d x w`` matrix of fixed-size
counters; each item owns one counter per row; queries return the
minimum (section III).  ``counter_bits`` configures the width
(4/8/16/32-bit variants appear in Figs 6, 19, 20); small counters
*saturate* -- "the counter is only incremented if it does not
overflow" -- which is exactly what makes them useless for heavy
hitters and what SALSA fixes.

Each row is a sum-merge SALSA row that never merges
(:class:`~repro.sketches.base.FixedWidthRows`), so the baseline runs
on SALSA CMS's own substrate and doors: the per-item
``RowSketch.update`` and the native ``SalsaRow.add_many`` batch door.
A comparison of the two then measures the algorithms, not two
implementations.
"""

from __future__ import annotations

from repro.core import ops
from repro.core.row import SUM
from repro.core.salsa_cms import SalsaCountMin
from repro.hashing import HashFamily
from repro.sketches.base import FixedWidthRows


class CountMinSketch(FixedWidthRows, SalsaCountMin):
    """Fixed-width Count-Min Sketch (Strict Turnstile).

    Parameters
    ----------
    w:
        Row width (a power of two).
    d:
        Number of rows (paper default 4).
    counter_bits:
        Counters hold ``[0, 2^b - 1]``, ``b`` in ``[1, 63]``; an add
        saturates at the top and clamps at zero.
    seed, hash_family:
        The rows' hash functions; counter-wise merge/subtract need a
        shared ``hash_family``.

    Examples
    --------
    >>> cms = CountMinSketch(w=1024, d=4, seed=1)
    >>> for _ in range(5):
    ...     cms.update(42)
    >>> cms.query(42) >= 5
    True
    """

    def __init__(self, w: int, d: int = 4, counter_bits: int = 32,
                 seed: int = 0, hash_family: HashFamily | None = None):
        self._set_counter_bits(counter_bits)
        super().__init__(w, d, s=counter_bits, merge=SUM,
                         max_bits=counter_bits, seed=seed,
                         hash_family=hash_family)

    def merge(self, other: "CountMinSketch") -> None:
        """Counter-wise sum, saturating: self becomes s(A u B).

        Standard linear-sketch merging (:func:`repro.core.ops.merge`);
        requires identical shape and shared hash functions.
        """
        ops.merge(self, other)

    def subtract(self, other: "CountMinSketch") -> None:
        """Counter-wise difference, clamped at zero: self becomes
        s(A \\ B).

        Valid in the Strict Turnstile model only "given a guarantee
        that B is a subset of A" (section V); otherwise a counter
        clamps at zero, as a deletion on the update doors does.
        """
        ops.subtract(self, other)
