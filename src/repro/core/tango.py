"""Tango: fine-grained counter merging (section IV).

Where SALSA doubles a counter on every overflow, Tango grows it one
base slot at a time: counters may span *any* multiple of ``s`` bits.
The encoding is one merge bit per slot -- bit ``j`` set means "slot j
is merged with slot j+1" -- and decoding a counter scans the set bits
left and right of the queried slot (the paper's example: ``j = 5`` with
``m4 = m5 = m6 = m7 = 1`` and ``m3 = m8 = 0`` spans ``<4..8>``).

The growth schedule mimics SALSA's alignment: a counter always extends
toward filling the smallest enclosing power-of-two block, so at every
point in time each Tango counter is *contained in* the corresponding
SALSA counter (which is what makes Tango at least as accurate, and is
asserted by a property test).  The paper's example: counter 9 overflows
into ``<8,9>``, then ``<8..10>``, ``<8..11>``, ..., ``<8..15>``, then
``<7..15>`` and onward.

Like :class:`~repro.core.row.SalsaRow`, the physical storage is a
pluggable engine: ``"vector"`` (NumPy span/value arrays with vectorized
gathers, the default) or ``"bitpacked"`` (the reference ``BitArray`` +
``Bitmap`` the tests compare against).  Both report identical spans,
values, and ``memory_bits``.
"""

from __future__ import annotations

import numpy as np

from repro.bitvec import BitArray, Bitmap
from repro.core.row import MAX, SUM


class TangoBitPackedEngine:
    """Reference Tango storage: bit-packed payload + merge bitmap."""

    name = "bitpacked"

    def __init__(self, w: int, s: int):
        self.w = w
        self.s = s
        self.store = BitArray(w * s)
        self.bits = Bitmap(w)  # bit j: slot j merged with slot j+1

    def span_of(self, j: int) -> tuple[int, int]:
        """Inclusive (L, R) span of the counter containing slot ``j``."""
        bits = self.bits
        left = j
        while left > 0 and bits.get(left - 1):
            left -= 1
        right = j
        while right < self.w - 1 and bits.get(right):
            right += 1
        return left, right

    def read_span(self, left: int, right: int) -> int:
        return self.store.read(left * self.s, (right - left + 1) * self.s)

    def write_span(self, left: int, right: int, value: int) -> None:
        self.store.write(left * self.s, (right - left + 1) * self.s, value)

    def link(self, pos: int) -> None:
        """Join the spans containing ``pos`` and ``pos + 1``."""
        self.bits.set(pos)

    def read(self, j: int) -> int:
        left, right = self.span_of(j)
        return self.read_span(left, right)

    def read_many(self, idxs) -> np.ndarray:
        if isinstance(idxs, np.ndarray):
            idxs = idxs.tolist()
        read = self.read
        return np.fromiter((read(j) for j in idxs), dtype=np.uint64,
                           count=len(idxs))


class TangoVectorEngine:
    """NumPy Tango storage: per-slot span bounds and duplicated values.

    ``span_start[j]``/``span_end[j]`` bound the counter containing
    ``j``; ``values[j]`` is its value, duplicated across the span, so
    point reads and batched gathers are single array indexes.  Merge
    bits are derived, and the engine charges the same one bit per slot
    as the reference encoding.
    """

    name = "vector"

    def __init__(self, w: int, s: int):
        self.w = w
        self.s = s
        self.span_start = np.arange(w, dtype=np.int64)
        self.span_end = np.arange(w, dtype=np.int64)
        self.values = np.zeros(w, dtype=np.uint64)

    def span_of(self, j: int) -> tuple[int, int]:
        return int(self.span_start[j]), int(self.span_end[j])

    def read_span(self, left: int, right: int) -> int:
        return int(self.values[left])

    def write_span(self, left: int, right: int, value: int) -> None:
        self.values[left:right + 1] = value

    def link(self, pos: int) -> None:
        left = int(self.span_start[pos])
        right = int(self.span_end[pos + 1])
        self.span_start[left:right + 1] = left
        self.span_end[left:right + 1] = right

    def read(self, j: int) -> int:
        return int(self.values[j])

    def read_many(self, idxs) -> np.ndarray:
        return self.values[np.ascontiguousarray(idxs, dtype=np.int64)]


_TANGO_ENGINES = {
    TangoBitPackedEngine.name: TangoBitPackedEngine,
    TangoVectorEngine.name: TangoVectorEngine,
}


class TangoRow:
    """One row of fine-grained self-adjusting counters.

    Parameters
    ----------
    w:
        Number of base slots (power of two).
    s:
        Base counter width in bits; Tango supports s in {1,2,4,8,16}
        as evaluated in Fig 7 (non-power-of-two field offsets are
        handled by the generic BitArray paths).
    max_slots:
        Widest counter allowed, in slots (default: grows to 64 bits).
        The vector engine holds at most 64 bits; wider needs
        ``"bitpacked"``.
    merge:
        ``"sum"`` or ``"max"`` -- same semantics as SALSA.
    engine:
        ``"vector"`` (the default) or ``"bitpacked"`` (the reference).

    Examples
    --------
    >>> row = TangoRow(w=16, s=8)
    >>> _ = row.add(9, 255)
    >>> _ = row.add(9, 1)          # overflow: align left to <8,9>
    >>> row.span_of(9)
    (8, 9)
    >>> _ = row.add(9, 65535)      # overflow again: extend right
    >>> row.span_of(9)
    (8, 10)
    """

    overhead_bits_per_counter = 1.0
    #: Tango rows are unsigned (Cash Register / Strict Turnstile).
    signed = False

    def __init__(self, w: int, s: int = 8, max_slots: int | None = None,
                 merge: str = MAX, engine: str = "vector"):
        if w < 2 or w & (w - 1):
            raise ValueError(f"w must be a power of two >= 2, got {w}")
        if s < 1 or s > 64:
            raise ValueError(f"s must be in [1, 64], got {s}")
        if merge not in (SUM, MAX):
            raise ValueError(f"merge must be 'sum' or 'max', got {merge!r}")
        self.w = w
        self.s = s
        self.max_slots = min(64 // s if max_slots is None else max_slots, w)
        self.merge = merge
        if engine not in _TANGO_ENGINES:
            raise ValueError(
                f"unknown Tango engine {engine!r}; "
                f"known: {sorted(_TANGO_ENGINES)}"
            )
        if engine == "vector" and self.max_slots * s > 64:
            raise ValueError(
                f"vector Tango engine holds counters in uint64; "
                f"max_slots * s = {self.max_slots * s} exceeds 64 bits"
            )
        self.engine_name = engine
        self.engine = _TANGO_ENGINES[engine](w, s)
        self.merge_events = 0
        self.saturations = 0

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def span_of(self, j: int) -> tuple[int, int]:
        """Inclusive (L, R) span of the counter containing slot ``j``."""
        return self.engine.span_of(j)

    @staticmethod
    def _next_extension(left: int, right: int, w: int) -> int:
        """Slot to absorb next, per the power-of-two alignment rule.

        Find the smallest aligned power-of-two block that contains the
        span and is strictly larger; extend right if room remains on
        the right inside that block, else extend left.
        """
        span = right - left + 1
        k = span.bit_length() - 1
        if (1 << k) < span:
            k += 1
        block_start = (left >> k) << k
        block_end = block_start + (1 << k) - 1
        if block_start == left and block_end == right:
            # Span fills its block exactly; target the parent block.
            k += 1
            block_start = (left >> k) << k
            block_end = min(block_start + (1 << k) - 1, w - 1)
        if right < block_end:
            return right + 1
        return left - 1

    # ------------------------------------------------------------------
    # field access
    # ------------------------------------------------------------------
    def read(self, j: int) -> int:
        """Value of the counter containing slot ``j``."""
        return self.engine.read(j)

    def read_many(self, idxs) -> np.ndarray:
        """uint64 values of the counters containing each slot."""
        return self.engine.read_many(idxs)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def _grow(self, left: int, right: int, value: int) -> tuple[int, int, int]:
        """Absorb one neighbouring counter; return new (L, R, value)."""
        target = self._next_extension(left, right, self.w)
        n_left, n_right = self.engine.span_of(target)
        neighbour = self.engine.read_span(n_left, n_right)
        if self.merge == SUM:
            value += neighbour
        else:
            value = max(value, neighbour)
        # Join the spans (they are adjacent by construction).
        if target < left:
            self.engine.link(n_right)  # n_right == left - 1
            left = n_left
        else:
            self.engine.link(right)    # target == right + 1
            right = n_right
        self.merge_events += 1
        return left, right, value

    def add(self, j: int, v: int) -> int:
        """Add ``v`` to the counter containing ``j``, growing as needed."""
        left, right = self.engine.span_of(j)
        value = max(0, self.engine.read_span(left, right) + v)
        return self._settle(left, right, value)

    def _settle(self, left: int, right: int, value: int) -> int:
        """Grow (left, right) until ``value`` fits, saturating at
        ``max_slots``, then store it: the shared tail of :meth:`add`
        and :meth:`set_at_least`.  Returns the stored value."""
        while value >> ((right - left + 1) * self.s):
            if right - left + 1 >= self.max_slots:
                value = (1 << ((right - left + 1) * self.s)) - 1
                self.saturations += 1
                break
            left, right, value = self._grow(left, right, value)
        self.engine.write_span(left, right, value)
        return value

    def set_at_least(self, j: int, target: int) -> int:
        """Conservative-update primitive (max-merge rows only)."""
        if self.merge != MAX:
            raise ValueError("set_at_least requires a max-merge row")
        left, right = self.engine.span_of(j)
        value = self.engine.read_span(left, right)
        if value >= target:
            return value
        return self._settle(left, right, target)

    # ------------------------------------------------------------------
    def counters(self):
        """Yield ``(left, right, value)`` for every live counter."""
        j = 0
        while j < self.w:
            left, right = self.engine.span_of(j)
            yield left, right, self.engine.read_span(left, right)
            j = right + 1

    @property
    def memory_bits(self) -> int:
        """Payload plus one merge bit per slot (engine-independent)."""
        return self.w * self.s + self.w

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TangoRow(w={self.w}, s={self.s}, "
                f"max_slots={self.max_slots}, merge={self.merge!r}, "
                f"engine={self.engine_name!r})")
