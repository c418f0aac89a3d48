"""Simple tabulation hashing.

The library's default mixer (splitmix64) is fast but only empirically
strong; BobHash matches the paper's implementation.  Tabulation hashing
(Zobrist / Patrascu-Thorup) is the *provably* 3-independent member of
the family -- enough independence for Chernoff-style concentration in
chaining and linear probing, and a useful reference point for the hash
ablation bench (``ablation_hashing``): if a sketch's error changes
materially when swapping the mixer for tabulation, the mixer was the
problem, not the sketch.

A :class:`TabulationHash` splits a 64-bit key into 8 bytes and XORs 8
table lookups: ``T_0[b_0] ^ T_1[b_1] ^ ... ^ T_7[b_7]``, each table
holding 256 random 64-bit words.
"""

from __future__ import annotations

import random

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
# Byte ``i`` of a 64-bit key sits at bit 8*i and indexes table ``i``.
_BYTE_SHIFTS = np.arange(0, 64, 8, dtype=np.uint64)[:, None]
_TABLE_IDS = np.arange(8)[:, None]


class TabulationHash:
    """8x256-entry simple tabulation over 64-bit keys.

    Parameters
    ----------
    seed:
        Seeds the table contents; equal seeds give equal functions.

    Examples
    --------
    >>> h = TabulationHash(seed=1)
    >>> h(42) == h(42)
    True
    >>> h(42) != h(43)
    True
    """

    __slots__ = ("seed", "_tables", "_table_array")

    def __init__(self, seed: int = 0):
        rng = random.Random(seed ^ 0x7AB1E)
        self.seed = seed
        self._tables = [
            [rng.getrandbits(64) for _ in range(256)] for _ in range(8)
        ]
        self._table_array = np.array(self._tables, dtype=np.uint64)

    def __call__(self, key: int) -> int:
        """Hash a 64-bit (or smaller) integer key."""
        key &= _MASK64
        tables = self._tables
        out = 0
        for i in range(8):
            out ^= tables[i][(key >> (8 * i)) & 0xFF]
        return out

    def many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`__call__` over an int64 array: one
        ``(8, n)`` table gather XOR-reduced over the byte axis."""
        key_bytes = (keys.view(np.uint64)[None, :] >> _BYTE_SHIFTS) \
            & np.uint64(0xFF)
        lookups = self._table_array[_TABLE_IDS, key_bytes.astype(np.intp)]
        return np.bitwise_xor.reduce(lookups, axis=0)

    def index(self, key: int, w: int) -> int:
        """Row index in a width-``w`` (power-of-two) row."""
        return self(key) & (w - 1)

    def sign(self, key: int) -> int:
        """+1 or -1 from the top bit."""
        return 1 if self(key) >> 63 else -1


class TabulationFamily:
    """``d`` independent tabulation functions (drop-in for
    :class:`~repro.hashing.HashFamily` in sketches that hash through
    ``index``/``sign``/``indexes`` per item and ``raw_many``/
    ``raw_matrix`` per batch).

    Examples
    --------
    >>> fam = TabulationFamily(d=3, seed=2)
    >>> len(fam.indexes(7, 256))
    3
    """

    __slots__ = ("d", "seed", "_functions")

    def __init__(self, d: int, seed: int = 0):
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.d = d
        self.seed = seed
        self._functions = [TabulationHash(seed * 1009 + row)
                           for row in range(d)]

    def raw(self, item: int, row: int) -> int:
        """Raw 64-bit hash for ``row``."""
        return self._functions[row](item)

    def raw_many(self, items: np.ndarray, row: int) -> np.ndarray:
        """Raw hashes of an int64 batch; element-wise equal to :meth:`raw`."""
        return self._functions[row].many(items)

    def raw_matrix(self, items: np.ndarray,
                   rows: int | None = None) -> np.ndarray:
        """``(rows, n)`` raw hashes; row ``r`` equals :meth:`raw_many`."""
        d = self.d if rows is None else rows
        return np.stack([f.many(items) for f in self._functions[:d]])

    def index(self, item: int, row: int, w: int) -> int:
        """Row index of ``item`` in a width-``w`` row."""
        return self._functions[row](item) & (w - 1)

    def sign(self, item: int, row: int) -> int:
        """+1 or -1 for Count-Sketch rows."""
        return 1 if self._functions[row](item) >> 63 else -1

    def indexes(self, item: int, w: int) -> list[int]:
        """All ``d`` row indices."""
        return [f(item) & (w - 1) for f in self._functions]
