"""NitroSketch: sampled sketch updates for software line rate.

Related work the paper positions SALSA against on the *speed* axis
[18]: "NitroSketch ... only performs updates for sampled packets using
a novel sampling technique that asymptotically improves over uniform
sampling."  The technique: instead of sampling packets uniformly and
updating all ``d`` rows for a sampled packet, sample *row updates*
independently -- each row fires after a Geometric(p) number of packets
and adds ``sign / p`` to its counter, which keeps every row unbiased
while touching ~``d * p`` counters per packet on average.

We implement the Count-Sketch-backed variant (the one the NitroSketch
paper builds its AlwaysLineRate mode on), with float counters -- the
point here is the update economics and the error structure, not bit
packing.  The extension bench ``ext_nitro`` measures the
accuracy/speed tradeoff against plain CS and SALSA CS.

The batch door replays the geometric skip process *event by event*
(the RNG draw order must match the per-item walk exactly), but only
touches Python for the ~``n * d * p`` row firings; the counter
arithmetic -- hashing the fired packets, signing, and accumulating --
is bulk NumPy.  ``p = 1`` needs no draws at all and vectorizes fully.
"""

from __future__ import annotations

import heapq
import math
import random

import numpy as np

from repro.hashing import HashFamily
from repro.sketches import _kernels
from repro.sketches.base import (BatchOpsMixin, StreamModel, as_batch,
                                 as_item, as_keys, median)


class NitroSketch(BatchOpsMixin):
    """Count Sketch with per-row geometrically sampled updates.

    Parameters
    ----------
    w:
        Row width (power of two).
    d:
        Number of rows (paper default for CS: 5).
    p:
        Row-update sampling probability in (0, 1].  ``p=1`` degrades
        to an exact Count Sketch.
    seed:
        Seeds hashing and the geometric skip sampling.

    Examples
    --------
    >>> ns = NitroSketch(w=1024, d=5, p=1.0, seed=2)
    >>> for _ in range(100):
    ...     ns.update(7)
    >>> ns.query(7)
    100.0
    """

    model = StreamModel.TURNSTILE
    query_dtype = np.dtype(np.float64)  # float rows

    def __init__(self, w: int, d: int = 5, p: float = 0.1, seed: int = 0,
                 hash_family: HashFamily | None = None):
        if w < 1 or w & (w - 1):
            raise ValueError(f"w must be a positive power of two, got {w}")
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p}")
        self.w = w
        self.d = d
        self.p = p
        self.hashes = (hash_family if hash_family is not None
                       else HashFamily(d, seed))
        if self.hashes.d < d:
            raise ValueError("hash family has fewer rows than the sketch")
        self._rng = random.Random(seed ^ 0x4172)
        self._rows = np.zeros((d, w), dtype=np.float64)
        #: Packets until each row's next sampled update.
        self._skip = [self._draw_skip() for _ in range(d)]
        self.n = 0
        #: Row-updates actually performed (for the speed model).
        self.touches = 0

    @classmethod
    def for_memory(cls, memory_bytes: int, d: int = 5, p: float = 0.1,
                   seed: int = 0) -> "NitroSketch":
        """Largest sketch fitting in ``memory_bytes`` (4B per counter,
        as :attr:`memory_bytes` charges)."""
        w = 2
        while d * w * 2 * 4 <= memory_bytes:
            w *= 2
        if d * w * 4 > memory_bytes:
            raise ValueError(f"{memory_bytes}B cannot hold d={d} rows")
        return cls(w=w, d=d, p=p, seed=seed)

    def _draw_skip(self) -> int:
        """Geometric(p) gap: number of packets until the row fires."""
        if self.p >= 1.0:
            return 1
        u = self._rng.random()
        return int(math.log(u) / math.log(1.0 - self.p)) + 1

    def update(self, item: int, value: int = 1) -> None:
        """Process ``<item, value>``; each row fires independently."""
        item, value = as_item(item, value)
        self.n += value
        for row in range(self.d):
            self._skip[row] -= 1
            if self._skip[row] > 0:
                continue
            self._skip[row] = self._draw_skip()
            col = self.hashes.index(item, row, self.w)
            sign = self.hashes.sign(item, row)
            self._rows[row][col] += sign * value / self.p
            self.touches += 1

    def query(self, item: int) -> float:
        """Median of the signed row counters (unbiased per row)."""
        item, _ = as_item(item)
        return median([
            float(self._rows[row][self.hashes.index(item, row, self.w)])
            * self.hashes.sign(item, row)
            for row in range(self.d)
        ])

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    def update_many(self, items, values=None) -> None:
        """Batched geometric sampling: event-driven draws, bulk apply.

        The skip countdowns advance packet by packet and every firing
        consumes one RNG draw, in (packet, row) order -- the event loop
        replays exactly that (so the post-batch RNG state and skip
        values are bit-identical to the per-item walk), then each row
        hashes only its *fired* packets in one vectorized call and
        accumulates them with ``np.add.at`` (in-order per counter, so
        float addition order matches too).
        """
        items, values = as_batch(items, values)
        n = len(items)
        if n == 0:
            return
        self.n += int(values.sum())
        d = self.d
        fired: list[list[int]] = [[] for _ in range(d)]
        # 0-based packet index at which each row next fires.
        next_fire = [s - 1 for s in self._skip]
        if self.p >= 1.0:
            # Every row fires on every packet and no draws occur.
            for row in range(d):
                fired[row] = list(range(next_fire[row], n))
            self._skip = [1] * d
        else:
            # Event heap keyed (packet, row): pops replicate the
            # per-item walk's draw order (row-major within a packet).
            heap = [(next_fire[row], row) for row in range(d)]
            heapq.heapify(heap)
            rand = self._rng.random
            log = math.log
            log_q = log(1.0 - self.p)
            while heap[0][0] < n:
                t, row = heap[0]
                fired[row].append(t)
                heapq.heapreplace(
                    heap, (t + int(log(rand()) / log_q) + 1, row))
            for t, row in heap:
                next_fire[row] = t
            self._skip = [f - (n - 1) for f in next_fire]
        for row in range(d):
            ts = fired[row]
            if not ts:
                continue
            t_arr = np.asarray(ts, dtype=np.int64)
            raw = self.hashes.raw_many(items[t_arr], row)
            cols = (raw & np.uint64(self.w - 1)).astype(np.int64)
            v = values[t_arr]
            inv_signed = np.where(raw >> np.uint64(63), v, -v) / self.p
            np.add.at(self._rows[row], cols, inv_signed)
            self.touches += len(ts)

    def query_many(self, items) -> np.ndarray:
        """Vectorized batch query over the raw batch: exact float median
        over row gathers."""
        items = as_keys(items)
        raw2d = self.hashes.raw_matrix(items, self.d)
        idx2d = (raw2d & np.uint64(self.w - 1)).astype(np.int64)
        vals = _kernels.gather_2d(self._rows, idx2d)
        votes = np.where(raw2d >> np.uint64(63), vals, -vals)
        return _kernels.median_over_rows(votes)

    @property
    def memory_bytes(self) -> int:
        """``d * w`` 32-bit-equivalent counters (as the paper charges)."""
        return self.d * self.w * 4

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NitroSketch(w={self.w}, d={self.d}, p={self.p})"
