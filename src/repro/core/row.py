"""A single SALSA row: self-adjusting counters that merge on overflow.

This is the engine under every SALSA sketch.  A row owns ``w`` base
slots of ``s`` bits; a counter that can no longer represent its value
merges with its sibling block -- combining values by **sum** (Strict
Turnstile-safe; Thm V.1) or **max** (Cash Register; Thms V.2/V.3) --
doubling its width, up to ``max_bits``.

Count Sketch rows use **sign-magnitude** fields (the paper's §V "Count
Sketch" change): the top bit of the field is the sign, so overflow is
symmetric in sign, which is what makes SALSA CS unbiased (Lemma V.4).

The *physical* storage is pluggable (:mod:`repro.core.engines`):
``SalsaRow`` owns the merge policy and overflow decisions, while a
:class:`~repro.core.engines.RowEngine` holds the counters -- a NumPy
materialization whose batch door runs natively (``engine="vector"``,
the default), or the paper's bit-packed encoding (``engine="bitpacked"``),
kept as the reference tests compare against and as the wire
format's specification.
Both are observationally identical on every stream.
"""

from __future__ import annotations

import math

from repro.core import _native
from repro.core.engines import (
    COMPACT,
    MAX,
    SIMPLE,
    SUM,
    BitPackedEngine,
    field_fits,
    make_engine,
)
from repro.sketches.base import as_batch

__all__ = ["SUM", "MAX", "SIMPLE", "COMPACT", "SalsaRow"]


class SalsaRow:
    """One row of self-adjusting counters.

    Parameters
    ----------
    w:
        Number of base slots (power of two).
    s:
        Base counter width in bits (paper default 8).
    max_bits:
        Widest counter allowed; merging stops there and the counter
        saturates (the paper lets counters grow to 64 bits).  The
        vector engine holds at most 64; wider needs ``"bitpacked"``.
    merge:
        ``"sum"`` or ``"max"``.
    signed:
        Sign-magnitude fields for Count Sketch rows.  Forces sum
        merging ("max-merge may not be correct as counters may have
        opposite signs").
    encoding:
        ``"simple"`` (1 bit/counter) or ``"compact"`` (~0.594).
    engine:
        ``"vector"`` (native bulk path, the default) or ``"bitpacked"``
        (the bit-exact reference, which has no bulk path).

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
                 encoding: str = SIMPLE, engine: str = "vector"):
        if w < 2 or w & (w - 1):
            raise ValueError(f"w must be a power of two >= 2, got {w}")
        if s < 2 or s & (s - 1) or s > 64:
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
        self.w = w
        self.s = s
        self.max_bits = s << max_level
        self.max_level = max_level
        self.merge = merge
        self.signed = signed
        self.encoding = encoding
        self.engine = make_engine(engine, w, s, max_level,
                                  signed=signed, encoding=encoding)
        self.engine_name = engine
        #: Counts of overflow->merge events (exposed for experiments).
        self.merge_events = 0
        #: Counts of saturations at max_bits (should stay 0 in practice).
        self.saturations = 0

    # ------------------------------------------------------------------
    @property
    def layout(self):
        """The merge layout.  For the vector engine this is the engine
        itself, which answers the same ``locate``/``level_of``/
        ``counters`` queries."""
        engine = self.engine
        return engine.layout if isinstance(engine, BitPackedEngine) else engine

    # ------------------------------------------------------------------
    # value-domain helpers (engine-independent semantics)
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

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read(self, j: int) -> int:
        """Value of the counter containing base slot ``j``."""
        return self.engine.read(j)

    def level_of(self, j: int) -> int:
        """Merge level of the counter containing slot ``j``."""
        return self.engine.level_of(j)

    def locate(self, j: int) -> tuple[int, int]:
        """(level, block_start) of the counter containing slot ``j``."""
        return self.engine.locate(j)

    def read_block(self, start: int, level: int) -> int:
        """Value of the (known-located) counter at (start, level)."""
        return self.engine.read_block(start, level)

    def read_many(self, idxs):
        """Values of the counters containing each slot (uint64 on
        unsigned rows, int64 on signed ones)."""
        return self.engine.read_many(idxs)

    def _block_values(self, start: int, level: int) -> list[int]:
        """Values of all live counters inside ``[start, start + 2^level)``."""
        engine = self.engine
        values = []
        j = start
        end = start + (1 << level)
        while j < end:
            lvl, st = engine.locate(j)
            values.append(engine.read_block(st, lvl))
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
        new_level = level + 1
        new_start = (start >> new_level) << new_level
        sibling = new_start if start != new_start else new_start + (1 << level)
        others = self._block_values(sibling, level)
        if self.merge == SUM:
            value = value + sum(others)
        else:
            value = max(value, *others)
        self.engine.merge_up(start, level)
        self.merge_events += 1
        return new_start, new_level, value

    def add(self, j: int, v: int) -> int:
        """Add ``v`` to the counter containing slot ``j``.

        Merges as many times as needed for the result to fit; saturates
        at ``max_bits``.  Returns the counter's new value.
        """
        level, start = self.engine.locate(j)
        value = self.engine.read_block(start, level) + v
        if not self.signed and value < 0:
            # Strict Turnstile counters never go negative; clamp so a
            # (mis-ordered) deletion cannot trigger runaway merging.
            value = 0
        return self._settle(start, level, value)

    def _settle(self, start: int, level: int, value: int) -> int:
        """Merge (start, level) until ``value`` fits, saturating at
        ``max_level``, then store it: the shared tail of :meth:`add`
        and :meth:`set_at_least`.  Returns the stored value."""
        while not self._fits(value, self.s << level):
            if level >= self.max_level:
                value = self._clamp(value, self.s << level)
                self.saturations += 1
                break
            start, level, value = self._grow(start, level, value)
        self.engine.write_block(start, level, value)
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
        Vector rows run the check natively
        (:func:`repro.core._native.add_partial`); the bit-packed
        reference engine (and the vector engine without the kernel)
        reports every superblock dirty.
        ``apply=False`` computes the mask without writing anything.
        """
        if _native.usable((self,)):
            return _native.add_partial(self.engine, *as_batch(idxs, values),
                                       apply)
        return self.engine.add_batch_partial(idxs, values, apply=apply)

    def add_many(self, idxs, values) -> None:
        """:meth:`add` of each ``(idxs[t], values[t])`` in stream order.

        The raw stream goes in as it arrived: duplicate slots, negative
        deltas and any int64 value.  :meth:`add_batch_partial` applies
        every merge-free superblock in one pass, then the updates
        landing in a dirty superblock replay in stream order, so the
        row ends bit-identical to the per-item loop (values, levels,
        ``merge_events``, ``saturations``).  On vector rows with the
        native kernel, :func:`repro.core._native.replay` adds every
        replayed update that needs no merge in C and calls :meth:`add`
        only on those that merge; elsewhere (bit-packed rows, no C
        compiler) each replayed update goes through :meth:`add`.

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
        level, start = self.engine.locate(j)
        value = self.engine.read_block(start, level)
        if value >= target:
            return value
        return self._settle(start, level, target)

    # ------------------------------------------------------------------
    # bulk operations (sketch algebra, AEE, Linear Counting)
    # ------------------------------------------------------------------
    def counters(self):
        """Yield ``(start, level, value)`` for every live counter."""
        engine = self.engine
        for start, level in engine.counters():
            yield start, level, engine.read_block(start, level)

    def ensure_level(self, j: int, target_level: int) -> tuple[int, int]:
        """Merge until the counter containing ``j`` spans >= target_level.

        Used when merging two SALSA sketches: the result's layout must
        cover both inputs' layouts.  Returns (level, start).
        """
        level, start = self.engine.locate(j)
        while level < target_level:
            value = self.engine.read_block(start, level)
            start, level, value = self._grow(start, level, value)
            value = self._clamp(value, self.s << level)
            self.engine.write_block(start, level, value)
        return level, start

    def scale_down_half(self, rng=None) -> None:
        """Halve every counter (AEE downsampling).

        Probabilistic ``Binomial(c, 1/2)`` when ``rng`` is given (the
        AEE "probabilistic downsampling"), else ``floor(c/2)``.
        """
        for start, level, value in list(self.counters()):
            if value == 0:
                continue
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
            self.engine.write_block(start, level, new)

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
        value = self.engine.read_block(start, level)
        if not self._fits(value, self.s << (level - 1)):
            return False
        new_level = self.engine.split(start, level)
        half = 1 << new_level
        self.engine.write_block(start, new_level, value)
        self.engine.write_block(start + half, new_level, value)
        return True

    def zero_base_slots_unmerged(self) -> tuple[int, int]:
        """(zero-valued level-0 counters, total unmerged level-0 counters).

        The inputs to SALSA's Linear Counting heuristic (section V).
        """
        zeros = 0
        unmerged = 0
        for start, level, value in self.counters():
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
        for _start, level in self.engine.counters():
            if level > 0:
                slack += (1 << level) - 1
        return slack

    # ------------------------------------------------------------------
    @property
    def memory_bits(self) -> int:
        """Counter payload plus encoding overhead, in bits.

        Engine-independent by contract: the vector engine charges the
        same bits as the bit-packed encoding it emulates.
        """
        return self.w * self.s + self.engine.overhead_bits

    def copy(self) -> "SalsaRow":
        """Deep copy (same engine)."""
        out = SalsaRow(w=self.w, s=self.s, max_bits=self.max_bits,
                       merge=self.merge, signed=self.signed,
                       encoding=self.encoding, engine=self.engine_name)
        out.engine = self.engine.copy()
        out.merge_events = self.merge_events
        out.saturations = self.saturations
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SalsaRow(w={self.w}, s={self.s}, max_bits={self.max_bits}, "
                f"merge={self.merge!r}, signed={self.signed}, "
                f"engine={self.engine_name!r})")
