"""Sliding-window sketching via epoch rotation.

Network measurement usually cares about the *recent* stream -- the
paper's change-detection task (Fig 15 c/d) splits time into epochs for
exactly this reason, and its reference [5] (Memento) studies the
sliding-window heavy-hitter problem in depth.  This module provides the
standard lightweight approximation: keep two sketches, ``current`` and
``previous``; every ``epoch`` updates, retire ``current`` into
``previous`` and start fresh.  A query sums both, so the answer always
covers between one and two epochs of history (window size ``W`` with a
2x slack), while memory stays at exactly two sketches.

Any frequency sketch works; pass a zero-argument factory.  With a
SALSA sketch the rotation also resets the merge layout, which is how a
long-lived SALSA deployment sheds stale wide counters -- the library's
answer to "what if the traffic mix changes?" (overflowed counters
never shrink within one sketch's lifetime).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.sketches.base import (
    add_exact,
    answer_dtype,
    as_batch,
    as_keys,
    batch_answers,
)


class WindowedSketch:
    """Two-epoch rotating window over any frequency sketch.

    Parameters
    ----------
    factory:
        Zero-argument callable building a fresh (empty) sketch.
    epoch:
        Updates per epoch; the query window covers the last
        ``epoch``..``2 * epoch`` updates.

    Examples
    --------
    >>> from repro.core import SalsaCountMin
    >>> win = WindowedSketch(lambda: SalsaCountMin(w=256, d=4, seed=1),
    ...                      epoch=100)
    >>> for _ in range(100):
    ...     win.update(7)       # epoch 1: flow 7
    >>> for _ in range(100):
    ...     win.update(8)       # epoch 2: flow 8; epoch 1 retired
    >>> win.query(8) >= 100     # still fully covered
    True
    >>> for _ in range(100):
    ...     win.update(9)       # epoch 3: flow 7's epoch is dropped
    >>> win.query(7)
    0
    """

    def __init__(self, factory: Callable[[], object], epoch: int):
        if epoch < 1:
            raise ValueError(f"epoch must be >= 1, got {epoch}")
        self.factory = factory
        self.epoch = epoch
        self.current = factory()
        self.previous: object | None = None
        self._in_epoch = 0
        #: Total updates processed (across all epochs).
        self.n = 0
        #: Completed rotations (exposed for tests and monitoring).
        self.rotations = 0

    def update(self, item: int, value: int = 1) -> None:
        """Process ``<item, value>``; rotates when the epoch fills."""
        if self._in_epoch >= self.epoch:
            self.rotate()
        self.current.update(item, value)
        self._in_epoch += 1
        self.n += 1

    def update_many(self, items, values=None) -> None:
        """Batched ingest, split exactly at epoch boundaries.

        The batch is sliced so that each slice lands entirely within
        one epoch and goes through the current sketch's ``update_many``
        (or its per-item loop when it has none).  Rotation fires at
        precisely the same update index as the per-item loop -- lazily,
        on the first update past a full epoch -- so ``rotations``,
        the in-epoch fill, and every query answer are identical to
        calling :meth:`update` item by item, for any chunking: one
        batch may span zero, one, or many rotations (a batch longer
        than ``2 * epoch`` simply rotates repeatedly mid-batch).  This
        is what lets chunked feeds -- ``Trace.chunks`` or a scenario
        generator's stream -- drive a sliding window without aligning
        chunk size to the epoch.
        """
        items, values = as_batch(items, values)
        n = len(items)
        pos = 0
        while pos < n:
            if self._in_epoch >= self.epoch:
                self.rotate()
            take = min(self.epoch - self._in_epoch, n - pos)
            chunk_items = items[pos:pos + take]
            chunk_values = values[pos:pos + take]
            if hasattr(self.current, "update_many"):
                self.current.update_many(chunk_items, chunk_values)
            else:
                update = self.current.update
                for x, v in zip(chunk_items.tolist(), chunk_values.tolist()):
                    update(x, v)
            self._in_epoch += take
            self.n += take
            pos += take

    def rotate(self) -> None:
        """Retire ``current`` into ``previous`` and start a new epoch.

        The retired sketch keeps answering queries for one more epoch,
        then is dropped wholesale -- which is also how a long-lived
        SALSA deployment sheds counters merged for flows that stopped
        mattering (see the churn/periodic scenarios in
        ``docs/scenarios.md``).
        """
        self.previous = self.current
        self.current = self.factory()
        self._in_epoch = 0
        self.rotations += 1

    def query(self, item: int) -> float:
        """Window estimate: current plus previous epoch."""
        total = self.current.query(item)
        if self.previous is not None:
            total += self.previous.query(item)
        return total

    @property
    def query_dtype(self) -> np.dtype:
        """The epoch sketches' answer dtype."""
        return answer_dtype(self.current)

    def query_many(self, items) -> np.ndarray:
        """Window estimates for a batch: current plus previous epoch,
        through each resident sketch's ``query_many`` when available.
        A sum past the answer dtype raises ``ValueError``."""
        items = as_keys(items)
        totals = batch_answers(self.current, items)
        if self.previous is not None:
            totals = add_exact(totals, batch_answers(self.previous, items))
        return totals

    def query_current_epoch(self, item: int) -> float:
        """Estimate over the in-progress epoch only."""
        return self.current.query(item)

    @property
    def window_span(self) -> tuple[int, int]:
        """(min, max) trailing updates covered by :meth:`query` now.

        ``lo`` is the in-progress epoch's fill; ``hi`` adds the retired
        epoch when one is resident.  The exact trailing-window truth
        for error measurement is the last ``hi`` arrivals (this is what
        ``repro window`` and ``repro scenario run --epoch`` score
        against).
        """
        lo = self._in_epoch
        hi = self._in_epoch + (self.epoch if self.previous is not None else 0)
        return lo, hi

    @property
    def memory_bytes(self) -> int:
        """Both resident sketches."""
        total = self.current.memory_bytes
        if self.previous is not None:
            total += self.previous.memory_bytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"WindowedSketch(epoch={self.epoch}, "
                f"rotations={self.rotations})")
