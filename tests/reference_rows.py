"""The paper's bit-packed SALSA and Tango rows: the test suite's oracle.

Production rows (:class:`~repro.core.row.SalsaRow`,
:class:`~repro.core.tango.TangoRow`) hold each slot's counter value and
merge level in NumPy arrays.  The rows here hold what the paper
describes instead: counters bit-packed in one ``w * s``-bit buffer
(:class:`BitArray`; Count-Sketch fields in sign-magnitude) and the
layout in merge bits (:class:`MergeBitLayout`, one bit per slot, Fig 1),
Appendix-A group numbers (:class:`CompactLayout`) or Tango's per-slot
link bits (:class:`Bitmap`).

:class:`BitPackedRow` and :class:`TangoBitPackedRow` subclass the
production rows and override only their storage methods, so the merge
policy under test is production's own; the tests then hold production
to the bar of representation independence: on any stream, no observer
(values, levels, spans, ``memory_bits``, answers, wire bytes) can tell
the two apart.  The native kernels run only on plain ``SalsaRow`` objects,
so a reference row always takes the Python walks.

* :func:`bitpacked` swaps a freshly built sketch's rows for reference
  rows of the same configuration, and :func:`build` builds a row or a
  sketch on either storage by name (``"vector"`` or ``"bitpacked"``);
* :func:`payload` is a reference row's two buffers, the bytes
  :func:`repro.core.serialize.dumps` must write for a row in its state,
  :func:`blob` a whole sketch's, and :func:`wire` either storage's.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core import serialize
from repro.core.compact import default_group_level, encoding_bits, layout_count
from repro.core.row import MAX, SIMPLE, SalsaRow
from repro.core.tango import TangoRow


class BitArray:
    """A fixed-size array of bits supporting multi-bit field access.

    Parameters
    ----------
    nbits:
        Total capacity in bits.  Rounded up to a whole byte internally;
        bits past ``nbits`` must not be touched.

    Examples
    --------
    >>> b = BitArray(32)
    >>> b.write(8, 16, 0xBEEF)
    >>> hex(b.read(8, 16))
    '0xbeef'
    >>> b.read(16, 8)  # the high byte of the 16-bit field
    190
    """

    __slots__ = ("_data", "nbits")

    def __init__(self, nbits: int):
        if nbits < 0:
            raise ValueError(f"nbits must be non-negative, got {nbits}")
        self.nbits = nbits
        self._data = bytearray((nbits + 7) // 8)

    # ------------------------------------------------------------------
    # field access
    # ------------------------------------------------------------------
    def read(self, off: int, width: int) -> int:
        """Return the unsigned value of the ``width``-bit field at ``off``."""
        data = self._data
        if off & 7 == 0 and width & 7 == 0:
            # Byte-aligned fast path: whole bytes, little-endian.
            start = off >> 3
            return int.from_bytes(data[start:start + (width >> 3)], "little")
        if (off >> 3) == ((off + width - 1) >> 3):
            # Field contained in a single byte.
            return (data[off >> 3] >> (off & 7)) & ((1 << width) - 1)
        return self._read_slow(off, width)

    def write(self, off: int, width: int, value: int) -> None:
        """Store ``value`` into the ``width``-bit field at ``off``.

        ``value`` must fit in ``width`` bits; a ``ValueError`` is raised
        otherwise so that counter-overflow bugs fail loudly instead of
        silently corrupting neighbouring counters.
        """
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        data = self._data
        if off & 7 == 0 and width & 7 == 0:
            start = off >> 3
            data[start:start + (width >> 3)] = value.to_bytes(width >> 3, "little")
            return
        if (off >> 3) == ((off + width - 1) >> 3):
            byte_idx = off >> 3
            shift = off & 7
            mask = ((1 << width) - 1) << shift
            data[byte_idx] = (data[byte_idx] & ~mask) | (value << shift)
            return
        self._write_slow(off, width, value)

    def _read_slow(self, off: int, width: int) -> int:
        """General path: field straddles bytes at an unaligned offset."""
        first = off >> 3
        last = (off + width - 1) >> 3
        chunk = int.from_bytes(self._data[first:last + 1], "little")
        return (chunk >> (off & 7)) & ((1 << width) - 1)

    def _write_slow(self, off: int, width: int, value: int) -> None:
        first = off >> 3
        last = (off + width - 1) >> 3
        nbytes = last + 1 - first
        chunk = int.from_bytes(self._data[first:last + 1], "little")
        shift = off & 7
        mask = ((1 << width) - 1) << shift
        chunk = (chunk & ~mask) | (value << shift)
        self._data[first:last + 1] = chunk.to_bytes(nbytes, "little")

    # ------------------------------------------------------------------
    # introspection / bulk
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Size of the backing buffer in bytes."""
        return len(self._data)

    def clear(self) -> None:
        """Zero every bit."""
        for i in range(len(self._data)):
            self._data[i] = 0

    def copy(self) -> "BitArray":
        """Return an independent deep copy."""
        out = BitArray(self.nbits)
        out._data[:] = self._data
        return out

    def tobytes(self) -> bytes:
        """Return the raw backing bytes (little-endian bit order)."""
        return bytes(self._data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self.nbits == other.nbits and self._data == other._data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BitArray(nbits={self.nbits})"


class Bitmap:
    """A fixed-size map of single bits.

    Examples
    --------
    >>> m = Bitmap(16)
    >>> m.set(6)
    >>> m.get(6), m.get(7)
    (True, False)
    >>> m.popcount()
    1
    """

    __slots__ = ("_data", "nbits")

    def __init__(self, nbits: int):
        if nbits < 0:
            raise ValueError(f"nbits must be non-negative, got {nbits}")
        self.nbits = nbits
        self._data = bytearray((nbits + 7) // 8)

    def get(self, i: int) -> bool:
        """Return bit ``i``."""
        return bool(self._data[i >> 3] & (1 << (i & 7)))

    def set(self, i: int) -> None:
        """Set bit ``i`` to 1."""
        self._data[i >> 3] |= 1 << (i & 7)

    def clear_bit(self, i: int) -> None:
        """Set bit ``i`` to 0."""
        self._data[i >> 3] &= ~(1 << (i & 7)) & 0xFF

    def popcount(self) -> int:
        """Number of set bits."""
        return sum(byte.bit_count() for byte in self._data)

    def clear(self) -> None:
        """Zero every bit."""
        for i in range(len(self._data)):
            self._data[i] = 0

    def copy(self) -> "Bitmap":
        """Return an independent deep copy."""
        out = Bitmap(self.nbits)
        out._data[:] = self._data
        return out

    @property
    def nbytes(self) -> int:
        """Size of the backing buffer in bytes."""
        return len(self._data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self.nbits == other.nbits and self._data == other._data

    def __iter__(self):
        """Iterate over all bits as booleans."""
        for i in range(self.nbits):
            yield self.get(i)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Bitmap(nbits={self.nbits}, set={self.popcount()})"


class MergeBitLayout:
    """One merge bit per base counter (the paper's "simple encoding").

    Parameters
    ----------
    w:
        Number of base (s-bit) slots; a power of two.
    max_level:
        Largest allowed merge level; a counter may span at most
        ``2^max_level`` slots (e.g. 3 for s=8 growing to 64 bits).

    Examples
    --------
    >>> lay = MergeBitLayout(16, max_level=3)
    >>> lay.merge_up(6, 0)   # counter 6 overflows: <6,7>
    (1, 6)
    >>> lay.merge_up(6, 1)   # <6,7> overflows: <4..7>
    (2, 4)
    >>> [lay.level_of(j) for j in (3, 4, 5, 6, 7, 8)]
    [0, 2, 2, 2, 2, 0]
    """

    #: Space cost the figures charge per counter for this encoding.
    overhead_bits_per_counter = 1.0

    def __init__(self, w: int, max_level: int):
        if w < 1 or w & (w - 1):
            raise ValueError(f"w must be a positive power of two, got {w}")
        if max_level < 0 or (1 << max_level) > w:
            raise ValueError(
                f"max_level {max_level} out of range for w={w}"
            )
        self.w = w
        self.max_level = max_level
        self.bits = Bitmap(w)

    # ------------------------------------------------------------------
    def level_of(self, j: int) -> int:
        """Merge level of the counter containing base slot ``j``."""
        bits = self.bits
        level = 0
        while level < self.max_level:
            up = level + 1
            probe = ((j >> up) << up) + (1 << level) - 1
            if not bits.get(probe):
                break
            level = up
        return level

    def block_start(self, j: int, level: int) -> int:
        """Start slot of the level-``level`` block containing ``j``."""
        return (j >> level) << level

    def locate(self, j: int) -> tuple[int, int]:
        """(level, block_start) of the counter containing slot ``j``."""
        level = self.level_of(j)
        return level, (j >> level) << level

    # ------------------------------------------------------------------
    def merge_up(self, start: int, level: int) -> tuple[int, int]:
        """Merge the counter at (``start``, ``level``) with its sibling.

        Marks the enclosing ``2^(level+1)`` block fully merged and
        returns the new ``(level, start)``.  The caller combines the
        constituent values and rewrites the block.
        """
        if level >= self.max_level:
            raise ValueError(
                f"counter at level {level} cannot merge past max_level "
                f"{self.max_level}"
            )
        new_level = level + 1
        new_start = (start >> new_level) << new_level
        bits = self.bits
        # A fully merged 2^L block has all its 2^L - 1 interior bits set.
        for pos in range(new_start, new_start + (1 << new_level) - 1):
            bits.set(pos)
        return new_level, new_start

    def split(self, start: int, level: int) -> int:
        """Undo the top-most merge of the block at (``start``, ``level``).

        Clears the level-``level`` membership bit, leaving two fully
        merged ``2^(level-1)`` halves.  Returns the new level.  Used by
        SALSA AEE's counter splitting after downsampling (section V).
        """
        if level < 1:
            raise ValueError("cannot split an unmerged counter")
        self.bits.clear_bit(start + (1 << (level - 1)) - 1)
        return level - 1

    # ------------------------------------------------------------------
    def counters(self):
        """Yield ``(start, level)`` for every live counter, in order."""
        j = 0
        w = self.w
        while j < w:
            level = self.level_of(j)
            yield j, level
            j += 1 << level

    @property
    def overhead_bits(self) -> int:
        """Total encoding overhead in bits (one per base slot)."""
        return self.w

    def copy(self) -> "MergeBitLayout":
        """Deep copy (used by sketch copy/merge operations)."""
        out = MergeBitLayout(self.w, self.max_level)
        out.bits = self.bits.copy()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MergeBitLayout(w={self.w}, max_level={self.max_level})"


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


class BitPackedRow(SalsaRow):
    """A :class:`SalsaRow` stored as the paper encodes it.

    Takes :class:`SalsaRow`'s arguments.  Counters live bit-packed in
    ``store`` (sign-magnitude on signed rows) and the layout in
    ``layout``: a :class:`MergeBitLayout` for the simple encoding, a
    :class:`CompactLayout` for the compact one.

    >>> row = BitPackedRow(w=8, s=8)
    >>> row.add(6, 255), row.add(6, 1)
    (255, 256)
    >>> [int(bit) for bit in row.layout.bits]    # m6 set: <6,7> merged
    [0, 0, 0, 0, 0, 0, 1, 0]
    """

    def __init__(self, w: int, s: int = 8, max_bits: int = 64,
                 merge: str = MAX, signed: bool = False,
                 encoding: str = SIMPLE):
        super().__init__(w, s, max_bits, merge, signed, encoding)
        del self.values, self.levels   # the arrays this row replaces
        self.store = BitArray(w * s)
        layout = MergeBitLayout if encoding == SIMPLE else CompactLayout
        self.layout = layout(w, self.max_level)

    # -- field codec ----------------------------------------------------
    def _decode(self, raw: int, width: int) -> int:
        """Raw field bits -> value (sign-magnitude when signed)."""
        if not self.signed:
            return raw
        magnitude = raw & ((1 << (width - 1)) - 1)
        return -magnitude if raw >> (width - 1) else magnitude

    def _encode(self, value: int, width: int) -> int:
        """Value -> raw field bits."""
        if not self.signed or value >= 0:
            return value
        return (1 << (width - 1)) | -value

    # -- SalsaRow's storage methods --------------------------------------
    def locate(self, j: int) -> tuple[int, int]:
        return self.layout.locate(j)

    def level_of(self, j: int) -> int:
        return self.layout.level_of(j)

    def read(self, j: int) -> int:
        level, start = self.layout.locate(j)
        return self.read_block(start, level)

    def read_block(self, start: int, level: int) -> int:
        width = self.s << level
        return self._decode(self.store.read(start * self.s, width), width)

    def write_block(self, start: int, level: int, value: int) -> None:
        width = self.s << level
        self.store.write(start * self.s, width, self._encode(value, width))

    def read_many(self, idxs) -> np.ndarray:
        return np.fromiter((self.read(j) for j in np.asarray(idxs).tolist()),
                           dtype=np.int64 if self.signed else np.uint64,
                           count=len(idxs))

    def counters(self):
        for start, level in self.layout.counters():
            yield start, level, self.read_block(start, level)

    def _merge_up(self, start: int, level: int) -> None:
        self.layout.merge_up(start, level)

    def _split(self, start: int, level: int) -> None:
        self.layout.split(start, level)

    @property
    def overhead_bits(self) -> int:
        return self.layout.overhead_bits

    def copy(self) -> "BitPackedRow":
        out = copy.copy(self)
        out.store, out.layout = self.store.copy(), self.layout.copy()
        return out


class TangoBitPackedRow(TangoRow):
    """A :class:`TangoRow` stored as the paper encodes it: counters
    bit-packed in ``store``, and bit ``j`` of ``bits`` set when slot
    ``j`` is merged with slot ``j + 1``.  Takes :class:`TangoRow`'s
    arguments."""

    def __init__(self, w: int, s: int = 8, max_slots: int | None = None,
                 merge: str = MAX):
        super().__init__(w, s, max_slots, merge)
        del self.span_start, self.span_end, self.values
        self.store = BitArray(w * s)
        self.bits = Bitmap(w)

    def span_of(self, j: int) -> tuple[int, int]:
        bits = self.bits
        left = j
        while left > 0 and bits.get(left - 1):
            left -= 1
        right = j
        while right < self.w - 1 and bits.get(right):
            right += 1
        return left, right

    def read(self, j: int) -> int:
        return self.read_span(*self.span_of(j))

    def read_many(self, idxs) -> np.ndarray:
        return np.fromiter((self.read(j) for j in np.asarray(idxs).tolist()),
                           dtype=np.uint64, count=len(idxs))

    def read_span(self, left: int, right: int) -> int:
        return self.store.read(left * self.s, (right - left + 1) * self.s)

    def write_span(self, left: int, right: int, value: int) -> None:
        self.store.write(left * self.s, (right - left + 1) * self.s, value)

    def _link(self, pos: int) -> None:
        self.bits.set(pos)


def reference_row(row):
    """An empty reference row configured as ``row``."""
    if isinstance(row, TangoRow):
        return TangoBitPackedRow(row.w, row.s, row.max_slots, row.merge)
    return BitPackedRow(row.w, row.s, row.max_bits, row.merge, row.signed,
                        row.encoding)


def bitpacked(sketch):
    """``sketch``, freshly built, with every row swapped for an empty
    reference row of the same configuration; returns it.

    >>> from repro.core import SalsaCountMin
    >>> sk = bitpacked(SalsaCountMin(w=64, d=2, seed=3))
    >>> type(sk.rows[0]).__name__
    'BitPackedRow'
    >>> sk.update_many([7, 7, 9], [200, 100, 4])
    >>> sk.query(7), sk.rows[0].merge_events
    (300, 1)
    """
    assert not any(row.merge_events or row.saturations
                   or any(value for _s, _l, value in row.counters())
                   for row in sketch.rows), "bitpacked() takes an empty sketch"
    sketch.rows = [reference_row(row) for row in sketch.rows]
    return sketch


def build(cls, engine: str = "vector", **kwargs):
    """``cls(**kwargs)``, a row or a sketch, on production storage
    (``engine="vector"``) or on the reference (``"bitpacked"``)."""
    if engine == "vector":
        return cls(**kwargs)
    if engine != "bitpacked":
        raise ValueError(f"unknown storage {engine!r}")
    if cls is SalsaRow:
        return BitPackedRow(**kwargs)
    if cls is TangoRow:
        return TangoBitPackedRow(**kwargs)
    return bitpacked(cls(**kwargs))


def payload(row: BitPackedRow) -> bytes:
    """A reference row's own buffers: its layout (merge bits, or each
    group's number in whole little-endian bytes), then its store."""
    layout = row.layout
    if row.encoding == SIMPLE:
        layout_bytes = bytes(layout.bits._data)
    else:
        zbytes = (encoding_bits(layout.group_level) + 7) // 8
        layout_bytes = b"".join(x.to_bytes(zbytes, "little")
                                for x in layout._x)
    return layout_bytes + row.store.tobytes()


def blob(sketch) -> bytes:
    """The bytes ``dumps`` must write for a sketch on reference rows:
    its header, then :func:`payload` of each row."""
    row = sketch.rows[0]
    header = serialize._HEADER.pack(
        serialize._MAGIC, serialize._VERSION, serialize._TYPES[type(sketch)],
        sketch.w, sketch.d, sketch.s, row.max_bits,
        serialize._MERGES[row.merge], serialize._ENCODINGS[row.encoding],
        sketch.hashes.seed)
    return header + b"".join(payload(row) for row in sketch.rows)


def wire(sketch) -> bytes:
    """A sketch's wire bytes on either storage: :func:`blob` on
    reference rows, ``dumps`` on production ones."""
    if isinstance(sketch.rows[0], BitPackedRow):
        return blob(sketch)
    return serialize.dumps(sketch)
