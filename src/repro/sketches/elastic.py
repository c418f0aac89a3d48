"""Elastic Sketch: a heavy part of exact entries + a light CMS.

Reference [30, Yang et al., SIGCOMM 2018] -- cited by the paper for its
use of Linear Counting, and the best-known "separate the elephants from
the mice" design.  Elastic keeps a *heavy part* (hash buckets holding
``(key, positive_votes, negative_votes, flag)``) in front of a *light
part* (a small-counter CMS).  Ostracism evicts a resident elephant
whose negative-vote ratio gets too high; the evicted count is folded
into the light part.

Queries sum the heavy entry (if present) with the light estimate when
the entry's ``flag`` says part of the flow may have passed through the
light part.

The extension bench ``ext_elastic`` puts Elastic next to SALSA: Elastic
wins when elephants are few and stable (exact entries), SALSA when the
head is wide or memory is tight (no per-entry key overhead).
"""

from __future__ import annotations

import numpy as np

from repro.hashing import HashFamily, mix64, mix64_many
from repro.sketches.base import (BatchOpsMixin, StreamModel, as_batch,
                                 as_item, as_keys)
from repro.sketches.count_min import CountMinSketch

#: Eviction threshold: evict when negative_votes / positive_votes
#: exceeds lambda (the Elastic paper's default is 8).
LAMBDA = 8

#: Bytes per heavy-part bucket: 8B key + 4B votes+ + 4B votes- + flag.
BUCKET_BYTES = 17

#: Share of a :meth:`ElasticSketch.for_memory` budget given to the heavy
#: part: the Elastic paper's 25% heavy / 75% light split.
HEAVY_SHARE = 0.25


class _Bucket:
    """One heavy-part bucket."""

    __slots__ = ("key", "positive", "negative", "flag")

    def __init__(self):
        self.key: int | None = None
        self.positive = 0     # count of the resident flow
        self.negative = 0     # votes against it (other flows' arrivals)
        self.flag = False     # True if the resident may have light-part mass


class ElasticSketch(BatchOpsMixin):
    """Heavy/light two-part sketch with vote-based ostracism.

    Parameters
    ----------
    heavy_buckets:
        Number of heavy-part buckets (power of two).
    light_memory:
        Bytes for the light part (an 8-bit CMS, as in the original).
    seed:
        Hash seed for both parts.

    :meth:`for_memory` sizes both parts from one budget with the
    Elastic paper's split (:data:`HEAVY_SHARE`); the catalogue's
    ``elastic`` (:mod:`repro.experiments.algorithms`) calls it.

    Examples
    --------
    >>> es = ElasticSketch(heavy_buckets=1 << 8, light_memory=1024, seed=1)
    >>> for _ in range(300):
    ...     es.update(42)
    >>> es.query(42)
    300
    """

    model = StreamModel.CASH_REGISTER

    def __init__(self, heavy_buckets: int, light_memory: int = 4096,
                 seed: int = 0):
        if heavy_buckets < 2 or heavy_buckets & (heavy_buckets - 1):
            raise ValueError(
                f"heavy_buckets must be a power of two >= 2, "
                f"got {heavy_buckets}")
        self.heavy_buckets = heavy_buckets
        self.seed = seed
        self._buckets = [_Bucket() for _ in range(heavy_buckets)]
        light_w = 8
        while (light_w * 2) * 1 <= light_memory:  # d=1 row of 8-bit cells
            light_w *= 2
        self.light = CountMinSketch(w=light_w, d=1, counter_bits=8,
                                    seed=seed ^ 0xE1A5,
                                    hash_family=HashFamily(1, seed ^ 0xE1A5))
        self.n = 0

    def _bucket_of(self, item: int) -> _Bucket:
        return self._buckets[mix64(item ^ mix64(self.seed))
                             & (self.heavy_buckets - 1)]

    # ------------------------------------------------------------------
    def update(self, item: int, value: int = 1) -> None:
        """Elastic's insertion with ostracism."""
        item, value = as_item(item, value)
        if value <= 0:
            raise ValueError("Elastic Sketch is Cash-Register-only")
        self.n += value
        bucket = self._bucket_of(item)
        if bucket.key is None:
            bucket.key = item
            bucket.positive = value
            bucket.flag = False
            return
        if bucket.key == item:
            bucket.positive += value
            return
        bucket.negative += value
        if bucket.negative < LAMBDA * bucket.positive:
            # Not enough votes to evict: the arrival goes to the light part.
            self.light.update(item, value)
            return
        # Ostracism: the resident is evicted into the light part and the
        # newcomer takes the bucket, flagged (its earlier arrivals, if
        # any, are in the light part).
        self.light.update(bucket.key, bucket.positive)
        bucket.key = item
        bucket.positive = value
        bucket.negative = 0
        bucket.flag = True

    def query(self, item: int) -> int:
        """Heavy count plus (when flagged or absent) the light estimate."""
        item, _ = as_item(item)
        bucket = self._bucket_of(item)
        if bucket.key == item:
            if bucket.flag:
                return bucket.positive + self.light.query(item)
            return bucket.positive
        return self.light.query(item)

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    @classmethod
    def for_memory(cls, memory_bytes: int, seed: int = 0) -> "ElasticSketch":
        """Largest sketch fitting in ``memory_bytes``: the heavy part
        takes ~:data:`HEAVY_SHARE` of the budget (power-of-two buckets
        of :data:`BUCKET_BYTES`), the light CMS the rest."""
        buckets = 2
        while buckets * 2 * BUCKET_BYTES <= memory_bytes * HEAVY_SHARE:
            buckets *= 2
        sketch = cls(heavy_buckets=buckets, seed=seed,
                     light_memory=memory_bytes - buckets * BUCKET_BYTES)
        if sketch.memory_bytes > memory_bytes:
            raise ValueError(f"{memory_bytes}B cannot hold an Elastic Sketch")
        return sketch

    def update_many(self, items, values=None) -> None:
        """Batched insertion: vectorized bucket hashing, deferred light.

        The heavy part's ostracism is order-dependent, so the bucket
        walk stays in stream order -- but all bucket indices hash in
        one vectorized pass, and every arrival destined for the light
        part is *deferred*: the light CMS is saturating and
        positive-only, so its updates commute and one
        ``light.update_many`` call at the end lands it in the exact
        per-item state.
        """
        items, values = as_batch(items, values)
        if len(items) == 0:
            return
        if int(values.min()) <= 0:
            raise ValueError("Elastic Sketch is Cash-Register-only")
        self.n += int(values.sum())
        bidx = (mix64_many(items.view(np.uint64)
                           ^ np.uint64(mix64(self.seed)))
                & np.uint64(self.heavy_buckets - 1)).astype(np.int64)
        buckets = self._buckets
        light_items: list[int] = []
        light_values: list[int] = []
        append_item = light_items.append
        append_value = light_values.append
        for item, value, i in zip(items.tolist(), values.tolist(),
                                  bidx.tolist()):
            bucket = buckets[i]
            key = bucket.key
            if key == item:
                bucket.positive += value
                continue
            if key is None:
                bucket.key = item
                bucket.positive = value
                bucket.flag = False
                continue
            bucket.negative += value
            if bucket.negative < LAMBDA * bucket.positive:
                append_item(item)
                append_value(value)
                continue
            append_item(key)
            append_value(bucket.positive)
            bucket.key = item
            bucket.positive = value
            bucket.negative = 0
            bucket.flag = True
        if light_items:
            self.light.update_many(
                np.asarray(light_items, dtype=np.int64),
                np.asarray(light_values, dtype=np.int64))

    def query_many(self, items) -> np.ndarray:
        """Batched query over the raw batch, answered as int64: one
        light-part gather, then the heavy part read once per bucket the
        batch touches (a Python pass over at most ``heavy_buckets``
        buckets, not over the keys)."""
        items = as_keys(items)
        est = self.light.query_many(items)
        bidx = (mix64_many(items.view(np.uint64)
                           ^ np.uint64(mix64(self.seed)))
                & np.uint64(self.heavy_buckets - 1)).astype(np.int64)
        width = self.heavy_buckets
        key = np.zeros(width, dtype=np.int64)
        resident = np.zeros(width, dtype=bool)
        positive = np.zeros(width, dtype=np.int64)
        flagged = np.zeros(width, dtype=bool)
        for i in np.flatnonzero(np.bincount(bidx, minlength=width)).tolist():
            bucket = self._buckets[i]
            if bucket.key is not None:
                key[i], positive[i] = bucket.key, bucket.positive
                resident[i], flagged[i] = True, bucket.flag
        hit = resident[bidx] & (key[bidx] == items)
        est[hit] = (positive[bidx[hit]]
                    + np.where(flagged[bidx[hit]], est[hit], 0))
        return est

    def heavy_entries(self) -> list[tuple[int, int]]:
        """Resident ``(item, count)`` pairs, largest first."""
        rows = [(b.key, b.positive) for b in self._buckets
                if b.key is not None]
        rows.sort(key=lambda row: -row[1])
        return rows

    @property
    def memory_bytes(self) -> int:
        """Heavy buckets plus the light CMS."""
        return self.heavy_buckets * BUCKET_BYTES + self.light.memory_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ElasticSketch(heavy_buckets={self.heavy_buckets}, "
                f"light_w={self.light.w})")
