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

Decoding follows the worked example of Fig 18: starting from ``X_m``,
either ``X_n = a_n - 1`` (whole block merged) or the base-``a_{n-1}``
digits of ``X_n`` encode the two half-blocks, and we recurse into the
half containing the queried slot -- O(m) divmods per access, which is
why the paper calls this variant slightly slower.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def layout_count(n: int) -> int:
    """a_n: the number of layouts of a 2^n-slot block (a_n = a_{n-1}^2 + 1)."""
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


class CompactLayout:
    """Appendix-A group encoding with the MergeBitLayout interface.

    Parameters
    ----------
    w:
        Number of base slots (power of two).
    max_level:
        Largest allowed merge level (counters cannot span groups, so
        ``max_level <= group_level``).
    group_level:
        m: each group covers ``2^m`` slots.  The paper uses
        ``m = max(5, #merges)``; smaller rows shrink m to fit.

    Examples
    --------
    >>> lay = CompactLayout(32, max_level=3)
    >>> lay.merge_up(6, 0)
    (1, 6)
    >>> lay.level_of(7)
    1
    >>> lay.overhead_bits  # 19 bits for one 32-slot group
    19
    """

    def __init__(self, w: int, max_level: int, group_level: int | None = None):
        if w < 1 or w & (w - 1):
            raise ValueError(f"w must be a positive power of two, got {w}")
        if group_level is None:
            group_level = default_group_level(w, max_level)
        if max_level > group_level:
            raise ValueError(
                f"max_level {max_level} exceeds group_level {group_level}"
            )
        self.w = w
        self.max_level = max_level
        self.group_level = group_level
        self.group_size = 1 << group_level
        self.n_groups = w // self.group_size
        self._x = [0] * self.n_groups  # layout number per group

    # -- layout-number <-> per-slot-level conversion -------------------
    def _decode_level(self, x: int, n: int, offset: int, j: int) -> int:
        """Level of slot ``j`` (group-relative) inside a 2^n block
        whose layout number is ``x`` and which starts at ``offset``."""
        while n > 0:
            if x == layout_count(n) - 1:
                return n
            half = layout_count(n - 1)
            left, right = divmod(x, half)
            mid = offset + (1 << (n - 1))
            if j < mid:
                x = left
            else:
                x = right
                offset = mid
            n -= 1
        return 0

    def _levels_array(self, x: int, n: int) -> list[int]:
        """Expand a layout number into one level per slot."""
        if n == 0:
            return [0]
        if x == layout_count(n) - 1:
            return [n] * (1 << n)
        half = layout_count(n - 1)
        left, right = divmod(x, half)
        return self._levels_array(left, n - 1) + self._levels_array(right, n - 1)

    def _encode(self, levels: list[int], n: int) -> int:
        """Layout number of a block given one level per slot."""
        if n == 0:
            return 0
        if levels[0] == n:
            return layout_count(n) - 1
        half = 1 << (n - 1)
        return (self._encode(levels[:half], n - 1) * layout_count(n - 1)
                + self._encode(levels[half:], n - 1))

    # -- MergeBitLayout-compatible interface ----------------------------
    def level_of(self, j: int) -> int:
        """Merge level of the counter containing base slot ``j``."""
        group = j >> self.group_level
        rel = j - (group << self.group_level)
        return self._decode_level(self._x[group], self.group_level, 0, rel)

    def block_start(self, j: int, level: int) -> int:
        """Start slot of the level-``level`` block containing ``j``."""
        return (j >> level) << level

    def locate(self, j: int) -> tuple[int, int]:
        """(level, block_start) of the counter containing slot ``j``."""
        level = self.level_of(j)
        return level, (j >> level) << level

    def merge_up(self, start: int, level: int) -> tuple[int, int]:
        """Merge the counter at (``start``, ``level``) with its sibling."""
        if level >= self.max_level:
            raise ValueError(
                f"counter at level {level} cannot merge past max_level "
                f"{self.max_level}"
            )
        new_level = level + 1
        new_start = (start >> new_level) << new_level
        group = new_start >> self.group_level
        base = group << self.group_level
        levels = self._levels_array(self._x[group], self.group_level)
        for rel in range(new_start - base, new_start - base + (1 << new_level)):
            levels[rel] = new_level
        self._x[group] = self._encode(levels, self.group_level)
        return new_level, new_start

    def split(self, start: int, level: int) -> int:
        """Split a merged block into its two fully merged halves."""
        if level < 1:
            raise ValueError("cannot split an unmerged counter")
        group = start >> self.group_level
        base = group << self.group_level
        levels = self._levels_array(self._x[group], self.group_level)
        half = 1 << (level - 1)
        for rel in range(start - base, start - base + 2 * half):
            levels[rel] = level - 1
        self._x[group] = self._encode(levels, self.group_level)
        return level - 1

    def counters(self):
        """Yield ``(start, level)`` for every live counter, in order."""
        j = 0
        while j < self.w:
            level = self.level_of(j)
            yield j, level
            j += 1 << level

    @property
    def overhead_bits(self) -> int:
        """z_m bits per group -- under 0.594 per counter for m >= 5."""
        return self.n_groups * encoding_bits(self.group_level)

    #: Per-counter overhead charged by the memory-sweep harness.
    @property
    def overhead_bits_per_counter(self) -> float:
        return self.overhead_bits / self.w

    def copy(self) -> "CompactLayout":
        """Deep copy."""
        out = CompactLayout(self.w, self.max_level, self.group_level)
        out._x = list(self._x)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CompactLayout(w={self.w}, max_level={self.max_level}, "
                f"group_level={self.group_level})")
