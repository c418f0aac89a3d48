"""Conservative Update Sketch (CUS, Estan-Varghese).

CMS restricted to the Cash Register model, with the conservative
increment rule of section III: on update ``<x, v>`` each counter is set
to ``max(counter, v + f̂_x)`` where ``f̂_x`` is the pre-update estimate.
Counters never exceed what CMS would hold, so CUS dominates CMS in
accuracy at the cost of a pre-update query.

Each row is a max-merge SALSA row that never merges
(:class:`~repro.sketches.base.FixedWidthRows`), so the per-item and
batch doors are SALSA CUS's: ``SalsaConservativeUpdate.update`` and
the native stream-order walk.
"""

from __future__ import annotations

from repro.core.salsa_cus import SalsaConservativeUpdate
from repro.hashing import HashFamily
from repro.sketches.base import FixedWidthRows


class ConservativeUpdateSketch(FixedWidthRows, SalsaConservativeUpdate):
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

    def __init__(self, w: int, d: int = 4, counter_bits: int = 32,
                 seed: int = 0, hash_family: HashFamily | None = None):
        self._set_counter_bits(counter_bits)
        super().__init__(w, d, s=counter_bits, max_bits=counter_bits,
                         seed=seed, hash_family=hash_family)
