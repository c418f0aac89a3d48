"""The near-optimal compact encoding of Appendix A.

The number of possible layouts of a block of ``2^n`` base slots obeys
``a_0 = 1, a_n = a_{n-1}^2 + 1`` (either the whole block is one merged
counter, or it is an independent pair of half-blocks).  Appendix A
proves any SALSA encoding needs at least ``log2(1.5) ~ 0.585`` bits per
counter and gives this scheme: number the layouts of each ``2^m``-slot
group with a mixed-radix integer ``X_m < a_m``, stored in
``z_m = ceil(log2 a_m)`` bits.  For the default ``m = 5``:
``a_5 = 458330``, ``z_5 = 19`` bits per 32 counters = **0.594 bits per
counter**, versus 1.0 for the simple encoding.

Rows never decode these numbers per access: a row keeps one merge level
per slot (:class:`~repro.core.row.SalsaRow`) and charges
:func:`encoding_bits` per group, and :mod:`repro.core.serialize`
encodes and decodes the numbers a whole row at a time, following the
worked example of Fig 18 (either ``X_n = a_n - 1``, the whole block
merged, or the base-``a_{n-1}`` digits of ``X_n`` encode the two
half-blocks).
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def layout_count(n: int) -> int:
    """a_n: the number of layouts of a 2^n-slot block (a_n = a_{n-1}^2 + 1).

    >>> [layout_count(n) for n in range(6)]
    [1, 2, 5, 26, 677, 458330]
    >>> encoding_bits(5)  # z_5: 19 bits per 32-slot group
    19
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n == 0:
        return 1
    prev = layout_count(n - 1)
    return prev * prev + 1


def encoding_bits(m: int) -> int:
    """z_m: bits needed to store one 2^m-group's layout number."""
    return (layout_count(m) - 1).bit_length()


def default_group_level(w: int, max_level: int) -> int:
    """The paper's ``m = max(5, #merges)``, shrunk to fit a ``w``-slot row."""
    group_level = max(5, max_level)
    while (1 << group_level) > w:
        group_level -= 1
    return group_level
