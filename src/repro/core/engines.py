"""Pluggable row engines: the physical storage behind :class:`SalsaRow`.

The merge semantics of sections IV/V (which counters exist, how they
combine on overflow) are independent of the physical encoding: any
engine that preserves the observable counter values and merge levels
is a valid SALSA row.  :class:`SalsaRow` therefore owns the *policy*
(merge rule, sign handling, overflow/saturation decisions) and
delegates the *representation* to a :class:`RowEngine`:

* :class:`VectorRowEngine` -- the production engine, built by every
  sketch unless told otherwise: one int64 (or uint64 for unsigned
  rows) value per *base slot* (the value of a merged counter is
  duplicated across its block, so a point read is a single array
  index) plus a per-slot level array; merge bits are derived, never
  stored.  :class:`SalsaRow`'s batch door (``add_batch_partial``) and
  the walks of :mod:`repro.core._native` run natively over its arrays;
  without a C compiler the door falls back to this module's default,
  which reports every superblock dirty, as on the bit-packed engine.
  It reports the
  *same* ``overhead_bits`` as the bit-packed encoding it emulates, so
  memory accounting -- and every figure -- is engine-independent.
* :class:`BitPackedEngine` -- the paper-faithful reference: counters
  bit-packed in a :class:`~repro.bitvec.BitArray`, layout tracked by
  :class:`~repro.core.layout.MergeBitLayout` or
  :class:`~repro.core.compact.CompactLayout`, Count-Sketch fields in
  sign-magnitude.  This is what the memory accounting charges, and its
  buffers are the wire format :mod:`repro.core.serialize` writes (the
  vector engine's arrays encode to the same bytes); tests build it
  with ``engine="bitpacked"`` to compare against.  It has no bulk path:
  every batch door reports every superblock dirty, so a batch on it is
  the per-item walk.

Both engines expose decoded integer values; only the bit-packed engine
and the wire codec know about sign-magnitude bit patterns.  The
contract (enforced by ``tests/test_row_engines.py``): on any stream,
both engines yield identical counter values, merge levels, estimates,
and memory bits -- an engine changes speed, never the sketch.
"""

from __future__ import annotations

import numpy as np

from repro.bitvec import BitArray
from repro.core.compact import (
    CompactLayout,
    default_group_level,
    encoding_bits,
)
from repro.core.layout import MergeBitLayout
from repro.sketches.base import as_batch

#: Layout encodings (accounting identities shared by every engine).
SIMPLE = "simple"
COMPACT = "compact"

#: Merge policies (:class:`~repro.core.row.SalsaRow` applies them; they
#: live here, below the row, so :mod:`repro.core._native` can name them).
SUM = "sum"
MAX = "max"


def field_fits(value: int, width: int, signed: bool) -> bool:
    """Can ``value`` be represented in a ``width``-bit field?

    Sign-magnitude for signed fields (overflow symmetric in sign, the
    property Lemma V.4 needs), plain unsigned range otherwise.
    """
    if signed:
        return abs(value) <= (1 << (width - 1)) - 1
    return 0 <= value < (1 << width)


def _compact_overhead_bits(w: int, max_level: int) -> int:
    """Appendix-A overhead for a ``w``-slot row, without building the
    layout (the vector engine charges it while storing no such code)."""
    group_level = default_group_level(w, max_level)
    return (w >> group_level) * encoding_bits(group_level)


class RowEngine:
    """Interface every SALSA row engine implements.

    All values crossing this boundary are *decoded* Python ints (signed
    for Count-Sketch rows); layout coordinates are ``(level, start)``
    pairs exactly as in :class:`~repro.core.layout.MergeBitLayout`.
    """

    #: registry key; subclasses override.
    name = "abstract"

    def __init__(self, w: int, s: int, max_level: int,
                 signed: bool = False, encoding: str = SIMPLE):
        if encoding not in (SIMPLE, COMPACT):
            raise ValueError(f"unknown encoding {encoding!r}")
        self.w = w
        self.s = s
        self.max_level = max_level
        self.signed = signed
        self.encoding = encoding

    # -- layout queries -------------------------------------------------
    def locate(self, j: int) -> tuple[int, int]:
        """(level, block_start) of the counter containing slot ``j``."""
        raise NotImplementedError

    def level_of(self, j: int) -> int:
        """Merge level of the counter containing slot ``j``."""
        raise NotImplementedError

    def counters(self):
        """Yield ``(start, level)`` for every live counter, in order."""
        raise NotImplementedError

    # -- structure ------------------------------------------------------
    def merge_up(self, start: int, level: int) -> tuple[int, int]:
        """Merge (start, level) with its sibling; return (level, start).

        Structure only -- the caller combines values and rewrites the
        enlarged block afterwards.
        """
        raise NotImplementedError

    def split(self, start: int, level: int) -> int:
        """Undo the top-most merge of a block; return the new level."""
        raise NotImplementedError

    # -- values ---------------------------------------------------------
    def read(self, j: int) -> int:
        """Decoded value of the counter containing slot ``j``."""
        level, start = self.locate(j)
        return self.read_block(start, level)

    def read_block(self, start: int, level: int) -> int:
        """Decoded value of the (known-located) counter."""
        raise NotImplementedError

    def write_block(self, start: int, level: int, value: int) -> None:
        """Store ``value`` (must fit the block's width) at (start, level)."""
        raise NotImplementedError

    def read_many(self, idxs) -> np.ndarray:
        """Decoded values of the counters containing each slot: int64
        on signed rows, uint64 on unsigned ones (a 64-bit counter can
        exceed ``2^63 - 1``)."""
        raise NotImplementedError

    # -- bulk -----------------------------------------------------------
    def add_batch_partial(self, idxs, values, apply: bool = True):
        """Apply the merge-free portion of a batch; report the rest.

        Counters merge only within their enclosing ``2^max_level``-
        aligned block ("superblock"), so superblocks are independent:
        the batch is applied to every superblock whose touched counters
        all pass the merge-free check, and a boolean mask over the
        ``w >> max_level`` superblocks marks the *dirty* ones (left
        completely untouched; ``SalsaRow.add_many`` replays their
        updates in stream order).  Returns ``None`` when everything
        applied.  ``apply=False`` computes the mask without writing
        anything.

        This default proves nothing -- every superblock is dirty -- so
        ``add_many``'s replay *is* the reference per-item walk; the
        bit-packed engine keeps exactly those semantics.
        """
        idxs, _ = as_batch(idxs, values)
        if len(idxs) and not 0 <= idxs.min() <= idxs.max() < self.w:
            raise ValueError(f"batch slots must lie in [0, {self.w})")
        return np.ones(self.w >> self.max_level, dtype=bool)

    # -- accounting / lifecycle ----------------------------------------
    @property
    def overhead_bits(self) -> int:
        """Encoding overhead charged by the figures, in bits."""
        raise NotImplementedError

    def copy(self) -> "RowEngine":
        """Independent deep copy."""
        raise NotImplementedError


class BitPackedEngine(RowEngine):
    """The bit-exact reference engine: ``BitArray`` + merge-bit layout.

    This is the original ``SalsaRow`` storage, extracted verbatim; its
    buffers are also the serialization wire format, which the vector
    engine's arrays encode to byte for byte (see
    :mod:`repro.core.serialize`).  It keeps the
    all-dirty bulk defaults of :class:`RowEngine`, so every batch on it
    replays through the per-item policy walk.
    """

    name = "bitpacked"

    def __init__(self, w: int, s: int, max_level: int,
                 signed: bool = False, encoding: str = SIMPLE):
        super().__init__(w, s, max_level, signed, encoding)
        self.store = BitArray(w * s)
        if encoding == SIMPLE:
            self.layout = MergeBitLayout(w, max_level)
        else:
            self.layout = CompactLayout(w, max_level)

    # -- field codec ----------------------------------------------------
    def _decode(self, raw: int, width: int) -> int:
        """Raw field bits -> value (sign-magnitude when signed)."""
        if not self.signed:
            return raw
        magnitude = raw & ((1 << (width - 1)) - 1)
        return -magnitude if raw >> (width - 1) else magnitude

    def _encode(self, value: int, width: int) -> int:
        """Value -> raw field bits."""
        if not self.signed:
            return value
        if value < 0:
            return (1 << (width - 1)) | -value
        return value

    # -- layout queries -------------------------------------------------
    def locate(self, j: int) -> tuple[int, int]:
        return self.layout.locate(j)

    def level_of(self, j: int) -> int:
        return self.layout.level_of(j)

    def counters(self):
        return self.layout.counters()

    # -- structure ------------------------------------------------------
    def merge_up(self, start: int, level: int) -> tuple[int, int]:
        return self.layout.merge_up(start, level)

    def split(self, start: int, level: int) -> int:
        return self.layout.split(start, level)

    # -- values ---------------------------------------------------------
    def read_block(self, start: int, level: int) -> int:
        width = self.s << level
        return self._decode(self.store.read(start * self.s, width), width)

    def write_block(self, start: int, level: int, value: int) -> None:
        width = self.s << level
        self.store.write(start * self.s, width, self._encode(value, width))

    def read_many(self, idxs) -> np.ndarray:
        if isinstance(idxs, np.ndarray):
            idxs = idxs.tolist()
        read = self.read
        return np.fromiter((read(j) for j in idxs),
                           dtype=np.int64 if self.signed else np.uint64,
                           count=len(idxs))

    # -- accounting / lifecycle ----------------------------------------
    @property
    def overhead_bits(self) -> int:
        return self.layout.overhead_bits

    def copy(self) -> "BitPackedEngine":
        out = BitPackedEngine(self.w, self.s, self.max_level,
                              self.signed, self.encoding)
        out.store = self.store.copy()
        out.layout = self.layout.copy()
        return out


class VectorRowEngine(RowEngine):
    """NumPy row materialization: decoded values + per-slot levels.

    Representation invariants:

    * ``levels[j]`` is the merge level of the counter containing ``j``,
      whose block therefore starts at ``j & -(1 << levels[j])``;
    * ``values[j]`` is that counter's decoded value -- duplicated
      across every slot of a merged block, so point reads and gathers
      never consult the layout.

    Unsigned rows store ``uint64`` (a saturated 64-bit counter holds
    ``2^64 - 1``); Count-Sketch rows store ``int64``.  Counters wider
    than 64 bits are therefore rejected at construction; only the
    bit-packed reference holds them.
    """

    name = "vector"

    def __init__(self, w: int, s: int, max_level: int,
                 signed: bool = False, encoding: str = SIMPLE):
        if s << max_level > 64:
            raise ValueError(
                f"vector rows hold counters in 64-bit words, but s={s} "
                f"merged {max_level} times is {s << max_level} bits; "
                f"lower max_bits or use engine='bitpacked'"
            )
        super().__init__(w, s, max_level, signed, encoding)
        self.levels = np.zeros(w, dtype=np.int64)
        self.values = np.zeros(w, dtype=np.int64 if signed else np.uint64)

    # -- layout queries -------------------------------------------------
    # Point access goes through ndarray.item, which hands back a Python
    # int without building a NumPy scalar first.
    def locate(self, j: int) -> tuple[int, int]:
        level = self.levels.item(j)
        return level, j & -(1 << level)

    def level_of(self, j: int) -> int:
        return self.levels.item(j)

    def counters(self):
        j = 0
        w = self.w
        levels = self.levels
        while j < w:
            level = int(levels[j])
            yield j, level
            j += 1 << level

    # -- structure ------------------------------------------------------
    def merge_up(self, start: int, level: int) -> tuple[int, int]:
        if level >= self.max_level:
            raise ValueError(
                f"counter at level {level} cannot merge past max_level "
                f"{self.max_level}"
            )
        new_level = level + 1
        new_start = (start >> new_level) << new_level
        end = new_start + (1 << new_level)
        self.levels[new_start:end] = new_level
        return new_level, new_start

    def split(self, start: int, level: int) -> int:
        if level < 1:
            raise ValueError("cannot split an unmerged counter")
        new_level = level - 1
        self.levels[start:start + (1 << level)] = new_level
        return new_level

    # -- values ---------------------------------------------------------
    def read(self, j: int) -> int:
        return self.values.item(j)

    def read_block(self, start: int, level: int) -> int:
        return self.values.item(start)

    def write_block(self, start: int, level: int, value: int) -> None:
        if level:
            self.values[start:start + (1 << level)] = value
        else:
            self.values[start] = value

    def read_many(self, idxs) -> np.ndarray:
        return self.values[np.ascontiguousarray(idxs, dtype=np.int64)]

    # -- accounting / lifecycle ----------------------------------------
    @property
    def overhead_bits(self) -> int:
        """Same charge as the emulated bit-packed encoding, so both
        engines report identical ``memory_bits`` on every row."""
        if self.encoding == SIMPLE:
            return self.w
        return _compact_overhead_bits(self.w, self.max_level)

    def copy(self) -> "VectorRowEngine":
        out = VectorRowEngine(self.w, self.s, self.max_level,
                              self.signed, self.encoding)
        out.levels[:] = self.levels
        out.values[:] = self.values
        return out


#: name -> engine class (SalsaRow storage backends).
ENGINES: dict[str, type[RowEngine]] = {
    BitPackedEngine.name: BitPackedEngine,
    VectorRowEngine.name: VectorRowEngine,
}


def make_engine(name: str, w: int, s: int, max_level: int,
                signed: bool = False, encoding: str = SIMPLE) -> RowEngine:
    """Instantiate the engine registered under ``name``."""
    if name not in ENGINES:
        raise ValueError(
            f"unknown row engine {name!r}; known: {sorted(ENGINES)}"
        )
    return ENGINES[name](w, s, max_level, signed, encoding)
