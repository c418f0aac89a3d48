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

Like :class:`~repro.core.row.SalsaRow`, a row holds its observable
state in arrays rather than in the merge bits: ``span_start[j]`` and
``span_end[j]`` bound the counter containing slot ``j``, and
``values[j]`` is its value, duplicated across the span, so point reads
and batched gathers are single array indexes.  The row charges the
encoding's one merge bit per slot, and its counters are ``uint64``
words, so a row whose counters could grow past 64 bits is refused.
"""

from __future__ import annotations

import numpy as np

from repro.core.row import MAX, SUM


class TangoRow:
    """One row of fine-grained self-adjusting counters.

    Parameters
    ----------
    w:
        Number of base slots (power of two).
    s:
        Base counter width in bits, in ``[1, 64]``; Fig 7 evaluates
        s in {1,2,4,8,16}.
    max_slots:
        Widest counter allowed, in slots (at least 1; default: grows to
        64 bits, the most a row holds).
    merge:
        ``"sum"`` or ``"max"`` -- same semantics as SALSA.

    Every door that takes a slot raises ``ValueError`` outside
    ``[0, w)``.

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
                 merge: str = MAX):
        if w < 2 or w & (w - 1):
            raise ValueError(f"w must be a power of two >= 2, got {w}")
        if s < 1 or s > 64:
            raise ValueError(f"s must be in [1, 64], got {s}")
        if max_slots is not None and max_slots < 1:
            raise ValueError(f"max_slots must be >= 1, got {max_slots}")
        if merge not in (SUM, MAX):
            raise ValueError(f"merge must be 'sum' or 'max', got {merge!r}")
        self.w = w
        self.s = s
        self.max_slots = min(64 // s if max_slots is None else max_slots, w)
        if self.max_slots * s > 64:
            raise ValueError(
                f"rows hold counters in 64-bit words, but max_slots * s "
                f"= {self.max_slots * s} bits"
            )
        self.merge = merge
        self.span_start = np.arange(w, dtype=np.int64)
        self.span_end = np.arange(w, dtype=np.int64)
        self.values = np.zeros(w, dtype=np.uint64)
        self.merge_events = 0
        self.saturations = 0

    # ------------------------------------------------------------------
    # storage: the only methods that touch the arrays
    # ------------------------------------------------------------------
    def span_of(self, j: int) -> tuple[int, int]:
        """Inclusive (L, R) span of the counter containing slot ``j``."""
        if not 0 <= j < self.w:
            raise ValueError(f"slot {j} outside [0, {self.w})")
        return self.span_start.item(j), self.span_end.item(j)

    def read(self, j: int) -> int:
        """Value of the counter containing slot ``j``."""
        if not 0 <= j < self.w:
            raise ValueError(f"slot {j} outside [0, {self.w})")
        return self.values.item(j)

    def read_many(self, idxs) -> np.ndarray:
        """uint64 values of the counters containing each slot."""
        idxs = np.asarray(idxs)
        if idxs.size and (idxs.dtype.kind not in "iu"
                          or not 0 <= idxs.min() <= idxs.max() < self.w):
            raise ValueError(f"slots must be integers in [0, {self.w})")
        return self.values[idxs.astype(np.int64, copy=False)]

    def read_span(self, left: int, right: int) -> int:
        """Value of the (known) counter spanning ``[left, right]``."""
        return self.values.item(left)

    def write_span(self, left: int, right: int, value: int) -> None:
        """Store ``value`` (it fits) in the counter spanning ``[left, right]``."""
        self.values[left:right + 1] = value

    def _link(self, pos: int) -> None:
        """Join the spans containing ``pos`` and ``pos + 1``."""
        left = self.span_start.item(pos)
        right = self.span_end.item(pos + 1)
        self.span_start[left:right + 1] = left
        self.span_end[left:right + 1] = right

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
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
    # updates
    # ------------------------------------------------------------------
    def _grow(self, left: int, right: int, value: int) -> tuple[int, int, int]:
        """Absorb one neighbouring counter; return new (L, R, value)."""
        target = self._next_extension(left, right, self.w)
        n_left, n_right = self.span_of(target)
        neighbour = self.read_span(n_left, n_right)
        if self.merge == SUM:
            value += neighbour
        else:
            value = max(value, neighbour)
        # Join the spans (they are adjacent by construction).
        if target < left:
            self._link(n_right)  # n_right == left - 1
            left = n_left
        else:
            self._link(right)    # target == right + 1
            right = n_right
        self.merge_events += 1
        return left, right, value

    def add(self, j: int, v: int) -> int:
        """Add ``v`` to the counter containing ``j``, growing as needed."""
        left, right = self.span_of(j)
        value = max(0, self.read_span(left, right) + v)
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
        self.write_span(left, right, value)
        return value

    def set_at_least(self, j: int, target: int) -> int:
        """Conservative-update primitive (max-merge rows only)."""
        if self.merge != MAX:
            raise ValueError("set_at_least requires a max-merge row")
        left, right = self.span_of(j)
        value = self.read_span(left, right)
        if value >= target:
            return value
        return self._settle(left, right, target)

    # ------------------------------------------------------------------
    def counters(self):
        """Yield ``(left, right, value)`` for every live counter."""
        j = 0
        while j < self.w:
            left, right = self.span_of(j)
            yield left, right, self.read_span(left, right)
            j = right + 1

    @property
    def memory_bits(self) -> int:
        """Payload plus one merge bit per slot."""
        return self.w * self.s + self.w

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TangoRow(w={self.w}, s={self.s}, "
                f"max_slots={self.max_slots}, merge={self.merge!r})")
