"""A single SALSA row: self-adjusting counters that merge on overflow.

This is the substrate of every SALSA sketch.  A row owns ``w`` base
slots of ``s`` bits; a counter that can no longer represent its value
merges with its sibling block -- combining values by **sum** (Strict
Turnstile-safe; Thm V.1) or **max** (Cash Register; Thms V.2/V.3) --
doubling its width, up to ``max_bits``.

Count Sketch rows use **sign-magnitude** fields (the paper's §V "Count
Sketch" change): the top bit of the field is the sign, so overflow is
symmetric in sign, which is what makes SALSA CS unbiased (Lemma V.4).

A row is its observable counters and merge levels, not their encoding.
:class:`SalsaRow` holds them in two arrays of ``w`` entries: ``levels[j]``
is the merge level of the counter containing slot ``j`` (so its block
starts at ``j & -(1 << levels[j])``), and ``values[j]`` is that
counter's value, duplicated across the block, so a point read or a
batched gather is one array index.  Merge bits are never stored; the
row charges the bits of the paper's encoding (:attr:`overhead_bits`),
and :mod:`repro.core.serialize` writes that encoding as the wire
format.  Counters are 64-bit words (``uint64``, or ``int64`` on Count
Sketch rows), so a row that could merge past 64 bits is refused.

The merge policy (:meth:`add`, :meth:`set_at_least`, :meth:`ensure_level`,
:meth:`try_split`, ...) reaches the arrays only through a few storage
methods (:meth:`locate`, :meth:`read_block`, :meth:`write_block`,
:meth:`counters`, ...).  The batch door and the walks of
:mod:`repro.core._native` read the arrays directly, and run only on
rows of this exact class.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from repro.core import _native
from repro.core.compact import default_group_level, encoding_bits
from repro.sketches.base import as_batch

__all__ = ["SUM", "MAX", "SIMPLE", "COMPACT", "SalsaRow", "field_fits"]

#: Merge policies.
SUM = "sum"
MAX = "max"

#: Layout encodings charged by :attr:`SalsaRow.overhead_bits`.
SIMPLE = "simple"
COMPACT = "compact"


def field_fits(value: int, width: int, signed: bool) -> bool:
    """Can ``value`` be represented in a ``width``-bit field?

    Sign-magnitude for signed fields (overflow symmetric in sign, the
    property Lemma V.4 needs), plain unsigned range otherwise.
    """
    if signed:
        return abs(value) <= (1 << (width - 1)) - 1
    return 0 <= value < (1 << width)


class SalsaRow:
    """One row of self-adjusting counters.

    Parameters
    ----------
    w:
        Number of base slots (power of two).
    s:
        Base counter width in bits (paper default 8): a power of two in
        ``[2, 64]``, or any width in ``[1, 64]`` when ``max_bits == s``
        (a row that never merges, as the fixed-width CMS, CUS and AEE use).
    max_bits:
        Widest counter allowed; merging stops there and the counter
        saturates (the paper lets counters grow to 64 bits, the most a
        row holds).
    merge:
        ``"sum"`` or ``"max"``.
    signed:
        Sign-magnitude fields for Count Sketch rows.  Forces sum
        merging ("max-merge may not be correct as counters may have
        opposite signs").
    encoding:
        ``"simple"`` (1 bit/counter) or ``"compact"`` (~0.594): the
        overhead the row charges, and the layout its wire bytes use.

    Every door that takes a slot raises ``ValueError`` outside
    ``[0, w)``.

    Examples
    --------
    >>> row = SalsaRow(w=8, s=8)
    >>> row.add(6, 255)     # fills counter 6
    255
    >>> row.add(6, 1)       # overflows: merges <6,7>
    256
    >>> row.level_of(7)     # 7 now belongs to the 16-bit counter
    1
    """

    def __init__(self, w: int, s: int = 8, max_bits: int = 64,
                 merge: str = MAX, signed: bool = False,
                 encoding: str = SIMPLE):
        if w < 2 or w & (w - 1):
            raise ValueError(f"w must be a power of two >= 2, got {w}")
        if max_bits == s:  # a row that never merges: any width
            if not 1 <= s <= 64:
                raise ValueError(f"s must be in [1, 64], got {s}")
        elif s < 2 or s & (s - 1) or s > 64:
            raise ValueError(f"s must be a power of two in [2, 64], got {s}")
        if max_bits < s:
            raise ValueError(f"max_bits {max_bits} smaller than s {s}")
        if merge not in (SUM, MAX):
            raise ValueError(f"merge must be 'sum' or 'max', got {merge!r}")
        if signed and merge != SUM:
            raise ValueError("signed (Count Sketch) rows must sum-merge")
        if encoding not in (SIMPLE, COMPACT):
            raise ValueError(f"unknown encoding {encoding!r}")
        max_level = 0
        while s << (max_level + 1) <= max_bits and (1 << (max_level + 1)) <= w:
            max_level += 1
        if s << max_level > 64:
            raise ValueError(
                f"rows hold counters in 64-bit words, but s={s} merged "
                f"{max_level} times is {s << max_level} bits; lower max_bits"
            )
        self.w = w
        self.s = s
        self.max_bits = s << max_level
        self.max_level = max_level
        self.merge = merge
        self.signed = signed
        self.encoding = encoding
        self.levels = np.zeros(w, dtype=np.int64)
        self.values = np.zeros(w, dtype=np.int64 if signed else np.uint64)
        #: Counts of overflow->merge events (exposed for experiments).
        self.merge_events = 0
        #: Counts of saturations at max_bits (should stay 0 in practice).
        self.saturations = 0

    # ------------------------------------------------------------------
    # storage: the only methods that touch ``values`` and ``levels``.
    # Point access goes through ndarray.item, which hands back a Python
    # int without building a NumPy scalar first.
    # ------------------------------------------------------------------
    def _bad_slot(self, j) -> ValueError:
        return ValueError(f"slot {j} outside [0, {self.w})")

    def locate(self, j: int) -> tuple[int, int]:
        """(level, block_start) of the counter containing slot ``j``."""
        if not 0 <= j < self.w:
            raise self._bad_slot(j)
        level = self.levels.item(j)
        return level, j & -(1 << level)

    def level_of(self, j: int) -> int:
        """Merge level of the counter containing slot ``j``."""
        if not 0 <= j < self.w:
            raise self._bad_slot(j)
        return self.levels.item(j)

    def read(self, j: int) -> int:
        """Value of the counter containing base slot ``j``."""
        if not 0 <= j < self.w:
            raise self._bad_slot(j)
        return self.values.item(j)

    def read_block(self, start: int, level: int) -> int:
        """Value of the (known-located) counter at (start, level)."""
        return self.values.item(start)

    def write_block(self, start: int, level: int, value: int) -> None:
        """Store ``value`` (it fits the block's width) at (start, level)."""
        if level:
            self.values[start:start + (1 << level)] = value
        else:
            self.values[start] = value

    def read_many(self, idxs) -> np.ndarray:
        """Values of the counters containing each slot (uint64 on
        unsigned rows, int64 on signed ones)."""
        idxs = np.asarray(idxs)
        if idxs.size and (idxs.dtype.kind not in "iu"
                          or not 0 <= idxs.min() <= idxs.max() < self.w):
            raise ValueError(f"slots must be integers in [0, {self.w})")
        return self.values[idxs.astype(np.int64, copy=False)]

    def counters(self):
        """Yield ``(start, level, value)`` for every live counter."""
        j = 0
        w, levels, values = self.w, self.levels, self.values
        while j < w:
            level = levels.item(j)
            yield j, level, values.item(j)
            j += 1 << level

    def _merge_up(self, start: int, level: int) -> None:
        """Join the counter at (start, level) with its sibling (layout
        only: the caller writes the merged value)."""
        new_level = level + 1
        new_start = (start >> new_level) << new_level
        self.levels[new_start:new_start + (1 << new_level)] = new_level

    def _split(self, start: int, level: int) -> None:
        """Undo the top-most merge of the block at (start, level)."""
        self.levels[start:start + (1 << level)] = level - 1

    @property
    def overhead_bits(self) -> int:
        """Bits the paper's encoding spends on the layout: one merge bit
        per slot, or one Appendix-A group number per ``2^m`` slots."""
        if self.encoding == SIMPLE:
            return self.w
        group_level = default_group_level(self.w, self.max_level)
        return (self.w >> group_level) * encoding_bits(group_level)

    def copy(self) -> "SalsaRow":
        """Deep copy."""
        out = copy.copy(self)
        out.values, out.levels = self.values.copy(), self.levels.copy()
        return out

    # ------------------------------------------------------------------
    # value-domain helpers
    # ------------------------------------------------------------------
    def _fits(self, value: int, width: int) -> bool:
        """Can ``value`` be represented in a ``width``-bit field?"""
        return field_fits(value, width, self.signed)

    def _clamp(self, value: int, width: int) -> int:
        """Saturate ``value`` into a ``width``-bit field."""
        if self.signed:
            bound = (1 << (width - 1)) - 1
            return max(-bound, min(bound, value))
        return max(0, min((1 << width) - 1, value))

    def _block_values(self, start: int, level: int) -> list[int]:
        """Values of all live counters inside ``[start, start + 2^level)``."""
        values = []
        j = start
        end = start + (1 << level)
        while j < end:
            lvl, st = self.locate(j)
            values.append(self.read_block(st, lvl))
            j = st + (1 << lvl)
        return values

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def _grow(self, start: int, level: int, value: int) -> tuple[int, int, int]:
        """Merge (start, level) upward once; return (start, level, value).

        ``value`` is the *pending* value of the current counter (it has
        not been written yet); the sibling half's live counters are
        combined into it per the merge policy.
        """
        if level >= self.max_level:
            raise ValueError(f"counter at level {level} cannot merge past "
                             f"max_level {self.max_level}")
        new_level = level + 1
        new_start = (start >> new_level) << new_level
        sibling = new_start if start != new_start else new_start + (1 << level)
        others = self._block_values(sibling, level)
        if self.merge == SUM:
            value = value + sum(others)
        else:
            value = max(value, *others)
        self._merge_up(start, level)
        self.merge_events += 1
        return new_start, new_level, value

    def add(self, j: int, v: int) -> int:
        """Add ``v`` to the counter containing slot ``j``.

        Merges as many times as needed for the result to fit; saturates
        at ``max_bits``.  Returns the counter's new value.
        """
        if self.max_level:
            level, start = self.locate(j)
        elif 0 <= j < self.w:   # a row that never merges: no layout
            level, start = 0, j
        else:
            raise self._bad_slot(j)
        value = self.read_block(start, level) + v
        if not self.signed and value < 0:
            # Strict Turnstile counters never go negative; clamp so a
            # (mis-ordered) deletion cannot trigger runaway merging.
            value = 0
        return self._settle(start, level, value)

    def _settle(self, start: int, level: int, value: int) -> int:
        """Merge (start, level) until ``value`` fits, saturating at
        ``max_level``, then store it: the shared tail of :meth:`add`
        and :meth:`set_at_least`.  Returns the stored value."""
        while not field_fits(value, self.s << level, self.signed):
            if level >= self.max_level:
                value = self._clamp(value, self.s << level)
                self.saturations += 1
                break
            start, level, value = self._grow(start, level, value)
        self.write_block(start, level, value)
        return value

    def add_batch_partial(self, idxs, values, apply: bool = True):
        """Apply the merge-free portion of a batch at superblock
        granularity.

        ``idxs``/``values`` are parallel 1-D integer sequences (lists or
        numpy arrays) of base-slot indices in ``[0, w)`` and int64
        deltas (duplicates allowed), checked as
        :func:`~repro.sketches.base.as_batch` checks keys and values;
        anything else raises ``ValueError``.
        A counter is *merge-free* when its current value plus the
        batch's total absolute inflow into it still fits its width:
        every interleaving of its adds then stays in range, so plain
        summation is bit-identical to any per-item order.

        Counters merge only within their ``2^max_level``-aligned
        superblock, so superblocks are independent streams: every
        superblock whose touched counters all pass the merge-free check
        is bulk-applied, and a boolean mask over the ``w >> max_level``
        superblocks flags the *dirty* rest (untouched --
        :meth:`add_many` replays exactly the updates landing there, in
        stream order).  Returns ``None`` when the whole batch applied.
        The check runs natively (:func:`repro.core._native.add_partial`);
        without the kernel, or on a subclass that stores its counters
        elsewhere, it proves nothing and reports every superblock
        dirty, so :meth:`add_many`'s replay is the per-item walk.
        ``apply=False`` computes the mask without writing anything.
        """
        idxs, values = as_batch(idxs, values)
        if _native.usable((self,)):
            return _native.add_partial(self, idxs, values, apply)
        if len(idxs) and not 0 <= idxs.min() <= idxs.max() < self.w:
            raise ValueError(f"batch slots must lie in [0, {self.w})")
        return np.ones(self.w >> self.max_level, dtype=bool)

    def add_many(self, idxs, values) -> None:
        """:meth:`add` of each ``(idxs[t], values[t])`` in stream order.

        The raw stream goes in as it arrived: duplicate slots, negative
        deltas and any int64 value.  :meth:`add_batch_partial` applies
        every merge-free superblock in one pass, then the updates
        landing in a dirty superblock replay in stream order, so the
        row ends bit-identical to the per-item loop (values, levels,
        ``merge_events``, ``saturations``).  With the native kernel,
        :func:`repro.core._native.replay` adds every replayed update
        that needs no merge in C and calls :meth:`add` only on those
        that merge; without it each replayed update goes through
        :meth:`add`.

        >>> row = SalsaRow(w=8, s=8)
        >>> row.add_many([6, 1, 6], [200, 3, 100])
        >>> row.read(6), row.level_of(7), row.read(1)
        (300, 1, 3)
        """
        idxs, values = as_batch(idxs, values)
        dirty = self.add_batch_partial(idxs, values)
        if dirty is None:
            return
        if _native.usable((self,)):
            _native.replay(self, idxs, values, dirty)
            return
        sel = dirty[idxs >> self.max_level]
        add = self.add
        for j, v in zip(idxs[sel].tolist(), values[sel].tolist()):
            add(j, v)

    def set_at_least(self, j: int, target: int) -> int:
        """Raise the counter containing ``j`` to at least ``target``.

        The conservative-update primitive (SALSA CUS, Thm V.3).  Only
        meaningful for max-merge rows: after any merges the counter is
        ``max(constituents, target)``.  Returns the new value.
        """
        if self.merge != MAX:
            raise ValueError("set_at_least requires a max-merge row")
        if self.max_level:
            level, start = self.locate(j)
        elif 0 <= j < self.w:   # as in add
            level, start = 0, j
        else:
            raise self._bad_slot(j)
        value = self.read_block(start, level)
        if value >= target:
            return value
        return self._settle(start, level, target)

    # ------------------------------------------------------------------
    # bulk operations (sketch algebra, AEE, Linear Counting)
    # ------------------------------------------------------------------
    def ensure_level(self, j: int, target_level: int) -> tuple[int, int]:
        """Merge until the counter containing ``j`` spans >= target_level.

        Used when merging two SALSA sketches: the result's layout must
        cover both inputs' layouts.  Returns (level, start).
        """
        level, start = self.locate(j)
        while level < target_level:
            value = self.read_block(start, level)
            start, level, value = self._grow(start, level, value)
            value = self._clamp(value, self.s << level)
            self.write_block(start, level, value)
        return level, start

    def scale_down_half(self, rng=None) -> None:
        """Halve every counter (AEE downsampling).

        Probabilistic ``Binomial(c, 1/2)`` when ``rng`` is given (the
        AEE "probabilistic downsampling"), else ``floor(c/2)``.  One
        ``read_many`` finds the non-zero counters; they are halved in
        slot order, so the draws are those of a walk over every counter.
        """
        values = self.read_many(np.arange(self.w, dtype=np.int64))
        for j in np.flatnonzero(values).tolist():
            level, start = self.locate(j)
            if start != j:
                continue  # a merged block, halved at its first slot
            value = values.item(j)
            if rng is None:
                new = value // 2 if value >= 0 else -((-value) // 2)
            else:
                # Binomial(|value|, 1/2) via bit sampling for small
                # values, normal approximation for large ones.
                mag = abs(value)
                if mag <= 64:
                    half = sum(1 for _ in range(mag) if rng.random() < 0.5)
                else:
                    half = int(rng.gauss(mag / 2, math.sqrt(mag) / 2) + 0.5)
                    half = min(mag, max(0, half))
                new = half if value > 0 else -half
            self.write_block(start, level, new)

    def try_split(self, start: int, level: int) -> bool:
        """Split a merged counter into two halves holding its value.

        Valid only for max-merge rows (section V: "this only works for
        max-merging"): both halves inherit the upper bound.  Returns
        True if the split happened.
        """
        if self.merge != MAX:
            raise ValueError("splitting requires a max-merge row")
        if level < 1:
            return False
        value = self.read_block(start, level)
        if not self._fits(value, self.s << (level - 1)):
            return False
        self._split(start, level)
        half = 1 << (level - 1)
        self.write_block(start, level - 1, value)
        self.write_block(start + half, level - 1, value)
        return True

    def zero_base_slots_unmerged(self) -> tuple[int, int]:
        """(zero-valued level-0 counters, total unmerged level-0 counters).

        The inputs to SALSA's Linear Counting heuristic (section V).
        """
        zeros = 0
        unmerged = 0
        for _start, level, value in self.counters():
            if level == 0:
                unmerged += 1
                if value == 0:
                    zeros += 1
        return zeros, unmerged

    def merged_subcounter_slack(self) -> float:
        """Sum over merged counters of (2^level - 1).

        Each merged counter has at least one non-zero sub-counter; the
        heuristic optimistically assumes a fraction f of the remaining
        ``2^level - 1`` are zero.
        """
        slack = 0
        for _start, level, _value in self.counters():
            if level > 0:
                slack += (1 << level) - 1
        return slack

    # ------------------------------------------------------------------
    @property
    def memory_bits(self) -> int:
        """Counter payload plus encoding overhead, in bits."""
        return self.w * self.s + self.overhead_bits

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SalsaRow(w={self.w}, s={self.s}, max_bits={self.max_bits}, "
                f"merge={self.merge!r}, signed={self.signed})")
