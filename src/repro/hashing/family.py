"""Seeded hash families for sketch rows.

A sketch with ``d`` rows needs ``d`` independent hash functions
``h_i : U -> [w]`` and (for Count Sketch) ``d`` sign functions
``g_i : U -> {+1, -1}``.  :class:`HashFamily` packages both, seeded and
deterministic.

The key's type alone picks the keyed primitive, and this module is the
only place that decides it:

* integer keys go through :func:`mix64` (the splitmix64 finalizer, a
  full-avalanche 64-bit mixer) keyed by a per-row random 64-bit seed,
  per item and in the vectorized batch methods alike;
* ``bytes`` keys go through BobHash (:func:`repro.hashing.bobhash`), the
  hash used by the paper's C++ code.

Sketches may therefore inline ``mix64(item ^ seeds[row])`` on their
per-item integer path and call the batch methods on their vectorized
path without any per-family check.

Row widths are powers of two throughout the library (as in the paper's
implementation: "For implementation efficiency, all row widths w are
powers of two"), so index extraction is a mask.
"""

from __future__ import annotations

import random

import numpy as np

from repro.hashing.bobhash import bobhash

_MASK64 = 0xFFFFFFFFFFFFFFFF

_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)


def mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective full-avalanche 64-bit mixer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix64_many(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` over a uint64 array.

    Bit-identical to calling ``mix64`` element-wise (uint64 arithmetic
    wraps modulo 2**64 exactly like the masked Python version), which
    the batch-equivalence tests rely on.
    """
    x = x.astype(np.uint64, copy=True)
    x ^= x >> _SH30
    x *= _MUL1
    x ^= x >> _SH27
    x *= _MUL2
    x ^= x >> _SH31
    return x


class HashFamily:
    """``d`` seeded hash functions with index and sign extraction.

    Parameters
    ----------
    d:
        Number of rows (hash functions).
    seed:
        Master seed; the per-row 64-bit keys are derived from it with a
        private :class:`random.Random`, so two families with equal seeds
        are identical (required for sketch merge/subtract, which the
        paper performs only between sketches "sharing the same hash
        functions").

    Notes
    -----
    Index and sign come from *independent* parts of the per-row hash:
    the low bits index the row and bit 63 provides the sign, so using
    both (as Count Sketch does) does not correlate them.
    """

    __slots__ = ("d", "seed", "seeds")

    def __init__(self, d: int, seed: int = 0):
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.d = d
        self.seed = seed
        rng = random.Random(seed)
        self.seeds = [rng.getrandbits(64) for _ in range(d)]

    # ------------------------------------------------------------------
    def raw(self, item: int | bytes, row: int) -> int:
        """Return the raw 64-bit hash of ``item``: :func:`mix64` for an
        integer, two 32-bit BobHash halves for ``bytes``."""
        if isinstance(item, bytes):
            seed = self.seeds[row]
            lo = bobhash(item, seed & 0xFFFFFFFF)
            hi = bobhash(item, (seed >> 32) & 0xFFFFFFFF)
            return (hi << 32) | lo
        return mix64(item ^ self.seeds[row])

    def index(self, item: int | bytes, row: int, w: int) -> int:
        """Row index of ``item`` in a width-``w`` row (w a power of two)."""
        return self.raw(item, row) & (w - 1)

    def sign(self, item: int | bytes, row: int) -> int:
        """+1 or -1, from the top bit of the row hash."""
        return 1 if self.raw(item, row) >> 63 else -1

    def indexes(self, item: int | bytes, w: int) -> list[int]:
        """All ``d`` row indices at once."""
        return [self.raw(item, row) & (w - 1) for row in range(self.d)]

    # ------------------------------------------------------------------
    # batched variants (the vectorized datapath)
    # ------------------------------------------------------------------
    def raw_many(self, items: np.ndarray, row: int) -> np.ndarray:
        """Raw 64-bit hashes of an int64 batch, as a uint64 array.

        Element-wise identical to :meth:`raw`.
        """
        return mix64_many(items.view(np.uint64) ^ np.uint64(self.seeds[row]))

    def index_many(self, items: np.ndarray, row: int, w: int) -> np.ndarray:
        """Row indices of a batch in a width-``w`` row (int64 array)."""
        return (self.raw_many(items, row) & np.uint64(w - 1)).astype(np.int64)

    def raw_matrix(self, items: np.ndarray,
                   rows: int | None = None) -> np.ndarray:
        """Raw hashes of a batch for *all* rows: a ``(rows, n)`` uint64
        matrix from a single vectorized :func:`mix64_many` call (the
        matrix-kernel door; see :mod:`repro.sketches._kernels`).

        Row ``r`` equals :meth:`raw_many` ``(items, r)`` exactly.
        """
        d = self.d if rows is None else rows
        seeds = np.array(self.seeds[:d], dtype=np.uint64)
        return mix64_many(items.view(np.uint64)[None, :] ^ seeds[:, None])

    def index_matrix(self, items: np.ndarray, w: int,
                     rows: int | None = None) -> np.ndarray:
        """All rows' indices at once: a ``(rows, n)`` int64 matrix."""
        return (self.raw_matrix(items, rows)
                & np.uint64(w - 1)).astype(np.int64)

    def sign_many(self, items: np.ndarray, row: int) -> np.ndarray:
        """+1/-1 sign array, from the top bit of each row hash."""
        top = (self.raw_many(items, row) >> np.uint64(63)).astype(np.int64)
        return 2 * top - 1

    # ------------------------------------------------------------------
    def same_functions(self, other: "HashFamily") -> bool:
        """True if both families realize identical hash functions."""
        return self.seeds == other.seeds

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HashFamily(d={self.d}, seed={self.seed})"
