"""Host-speed correction.

The benchmark runs on shared machines whose speed drifts by tens of
percent within a run.  A small fixed reference kernel runs *between*
program calls, never inside them, on arrays of its own; each timed
segment is then scaled by ``NOMINAL_REF_S / adjacent reference time``.
A segment that ran while the host was slow is scaled down by as much
as the kernel next to it slowed.  The nominal constant is fixed here
once and never re-derived from a run, so corrected figures from
different runs and commits are comparable.

Contention on these hosts slows interpreter-bound code (method calls,
NumPy scalar access) far more than vectorized NumPy, and code that
misses cache more than code that does not.  So the kernel is mostly
such interpreter work, shaped like the program's per-item paths and
scattered over a few MB like the program's counters, plus a small hash
and bincount: a tight arithmetic loop or a NumPy-only kernel
under-corrects the per-item replay by a third.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Reference-kernel time treated as the nominal host speed, in seconds
#: (the median of :meth:`RefKernel.measure` on an idle 2-vCPU x86 VM).
NOMINAL_REF_S = 0.00038
#: Size of the reference kernel that :data:`NOMINAL_REF_S` was measured
#: for: items walked one at a time, keys hashed by NumPy, and cells in
#: the toy counter array the walk scatters over.
REF_ITEMS = 300
REF_KEYS = 1 << 13
REF_CELLS = 1 << 17

_MUL = np.uint64(0x9E3779B97F4A7C15)
_SH = np.uint64(29)


class _Cells:
    """A toy counter array walked one item at a time."""

    def __init__(self, rng: np.random.Generator, n: int):
        self.levels = rng.integers(0, 3, size=n)
        self.values = rng.integers(0, 512, size=n).astype(np.uint64)
        self.out = np.zeros(n, dtype=np.uint64)

    def locate(self, j: int) -> tuple[int, int]:
        level = int(self.levels[j])
        return level, (j >> level) << level

    def bump(self, j: int, v: int) -> int:
        level, start = self.locate(j)
        value = int(self.values[start]) + v
        while value >> (8 << level) and level < 3:
            level += 1
        self.out[start] = value
        return value


class RefKernel:
    """A fixed ~0.38 ms kernel: a per-item Python walk over random
    cells of a toy counter array, then a vectorized hash and a bincount
    over preallocated arrays.  The work is identical on every call."""

    REPS = 3

    def __init__(self):
        rng = np.random.default_rng(0)
        self._cells = _Cells(rng, REF_CELLS)
        self._items = rng.integers(0, REF_CELLS, size=REF_ITEMS).tolist()
        self._keys = np.arange(REF_KEYS, dtype=np.uint64) * _MUL
        self._tmp = np.empty(REF_KEYS, dtype=np.uint64)
        self._idx = np.empty(REF_KEYS, dtype=np.int64)
        #: every kernel time measured, for reporting its median
        self.samples: list[float] = []

    def _once(self) -> float:
        t0 = time.perf_counter()
        bump = self._cells.bump
        for j in self._items:
            bump(j, 1)
        np.right_shift(self._keys, _SH, out=self._tmp)
        np.bitwise_xor(self._tmp, self._keys, out=self._tmp)
        np.multiply(self._tmp, _MUL, out=self._tmp)
        np.bitwise_and(self._tmp, np.uint64(4095), out=self._tmp)
        self._idx[:] = self._tmp
        np.bincount(self._idx, minlength=4096)
        return time.perf_counter() - t0

    def measure(self) -> float:
        """Median of a few kernel runs: the host's current speed."""
        t = statistics.median(self._once() for _ in range(self.REPS))
        self.samples.append(t)
        return t


def factor(ref_before: float, ref_after: float) -> float:
    """Scale for a segment timed between two reference measurements."""
    return NOMINAL_REF_S / ((ref_before + ref_after) / 2)


def corrected(raw: list[float], refs: list[float]) -> list[float]:
    """Host-correct segment times: ``raw[i]`` ran between reference
    measurements ``refs[i]`` and ``refs[i + 1]``."""
    if len(refs) != len(raw) + 1:
        raise ValueError(f"{len(raw)} segments need {len(raw) + 1} "
                         f"reference times, got {len(refs)}")
    return [r * factor(a, b) for r, a, b in zip(raw, refs, refs[1:])]
