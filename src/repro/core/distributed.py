"""Distributed sketching: partition, sketch locally, merge centrally.

Section V motivates sketch merging with "we can parallelize the
sketching of A and B and then merge them" -- the standard scale-out
deployment where each worker (core, NIC queue, collection point)
sketches its shard and a coordinator combines the results.  This module
packages that pattern:

* :func:`shard` -- split a trace into per-worker shards (hash or
  round-robin partitioning), with the hash policy vectorized through
  :func:`repro.hashing.mix64_many` (bit-identical to the per-item
  ``mix64`` walk it replaced);
* :class:`DistributedSketch` -- builds one local sketch per worker
  over a shared :class:`~repro.hashing.HashFamily`, feeds shards
  (:meth:`~DistributedSketch.feed` routes through each local sketch's
  ``update_many`` batch pipeline; :meth:`~DistributedSketch.feed_batched`
  adds chunking and an optional fork-pool mode;
  :meth:`~DistributedSketch.feed_stream` routes a *live* chunk stream
  -- e.g. a scenario generator -- through the same policies), and
  merges into a single global sketch via :func:`repro.core.ops.merge`
  (with :func:`repro.core.serialize.dumps` providing the wire format).

The correctness fact the tests pin down: *merging the shard sketches
equals sketching the whole stream* (exactly, counter-for-counter,
under sum-merge -- see the order-invariance tests for why), whichever
feed door, row engine, or shard policy was used.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable

import numpy as np

from repro.core import ops
from repro.core.serialize import dumps, loads, serializable
from repro.hashing import HashFamily, mix64, mix64_many
from repro.streams.model import Trace

HASH = "hash"
ROUND_ROBIN = "round_robin"


def _worker_keys(items: np.ndarray, workers: int, policy: str, seed: int,
                 offset: int = 0) -> np.ndarray:
    """Worker index of each item under a partition ``policy``.

    ``hash`` keys on the item: ``mix64(x ^ mix64(seed)) % workers`` for
    the whole batch in one :func:`~repro.hashing.mix64_many` call (uint64
    arithmetic wraps exactly like the masked per-item mixer).
    ``round_robin`` keys on the arrival index; ``offset`` counts the
    arrivals before ``items``.
    """
    if policy == HASH:
        salt = np.uint64(mix64(seed))
        return (mix64_many(items.view(np.uint64) ^ salt)
                % np.uint64(workers)).astype(np.int64)
    if policy == ROUND_ROBIN:
        return (offset + np.arange(len(items))) % workers
    raise ValueError(f"unknown policy {policy!r}")


def shard(trace: Trace, workers: int, policy: str = HASH,
          seed: int = 0) -> list[Trace]:
    """Split a trace into ``workers`` shards.

    ``hash`` partitioning keys on the item (each flow's packets land on
    one worker -- the NIC-RSS model); ``round_robin`` spreads arrivals
    evenly regardless of identity (the load-balancer model).  Either
    way the shards' multisets union to the input.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    keys = _worker_keys(trace.items, workers, policy, seed)
    return [
        Trace(trace.items[keys == worker],
              name=f"{trace.name}/shard{worker}")
        for worker in range(workers)
    ]


def _ingest(sketch, piece: Trace, batch_size: int | None) -> None:
    """Feed one shard through a sketch's best available door.

    ``batch_size=None`` hands the whole shard to ``update_many`` in one
    call; a positive size chunks it (bounded scratch arrays).  Sketches
    without a batch door take the per-item loop.
    """
    if hasattr(sketch, "update_many"):
        if batch_size is None:
            sketch.update_many(piece.items)
        else:
            update_many = sketch.update_many
            for chunk in piece.chunks(batch_size):
                update_many(chunk)
    else:
        update = sketch.update
        for x in piece:
            update(x)


#: Closure state inherited by fork()ed feed workers; never pickled
#: (mirrors ``experiments.runner._SWEEP_STATE``).
_FEED_STATE: tuple | None = None


def _feed_cell(worker: int) -> bytes:
    """Feed one worker's shard in a forked process; return the local
    sketch over the wire format."""
    locals_, shards, batch_size = _FEED_STATE
    sketch = locals_[worker]
    _ingest(sketch, shards[worker], batch_size)
    return dumps(sketch)


class DistributedSketch:
    """One sketch per worker plus a merge step.

    Parameters
    ----------
    factory:
        Callable ``(hash_family) -> sketch`` building one local sketch.
        All workers share the family (required for merging).
    workers:
        Number of local sketches.
    d:
        Rows in the shared hash family.
    seed:
        Seed of the shared family.

    Examples
    --------
    >>> from repro.core import SalsaCountMin
    >>> dist = DistributedSketch(
    ...     lambda fam: SalsaCountMin(w=256, d=4, merge="sum",
    ...                               hash_family=fam),
    ...     workers=3, d=4, seed=1)
    >>> dist.update(0, 42)        # worker 0 sees item 42
    >>> dist.update(2, 42)        # so does worker 2
    >>> dist.combined().query(42) >= 2
    True
    """

    def __init__(self, factory: Callable[[HashFamily], object],
                 workers: int, d: int = 4, seed: int = 0):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.family = HashFamily(d, seed)
        self.factory = factory
        self.locals = [factory(self.family) for _ in range(workers)]

    @property
    def workers(self) -> int:
        return len(self.locals)

    def update(self, worker: int, item: int, value: int = 1) -> None:
        """Route one update to a worker's local sketch."""
        self.locals[worker].update(item, value)

    def update_many(self, worker: int, items, values=None) -> None:
        """Route a batch of updates to one worker's local sketch.

        Goes through the sketch's own ``update_many`` (bit-identical to
        per-item by the batch contract); sketches without a batch door
        take the per-item loop.
        """
        sketch = self.locals[worker]
        if hasattr(sketch, "update_many"):
            sketch.update_many(items, values)
            return
        from repro.sketches.base import as_batch

        items, values = as_batch(items, values)
        for x, v in zip(items.tolist(), values.tolist()):
            sketch.update(x, v)

    def _check_shards(self, shards: list[Trace]) -> None:
        if len(shards) != len(self.locals):
            raise ValueError(
                f"{len(shards)} shards for {len(self.locals)} workers")

    def feed(self, shards: list[Trace]) -> None:
        """Feed one shard per worker (lengths must match).

        Each shard goes through its sketch's ``update_many`` batch
        pipeline when the sketch has one -- same final state as the
        per-item loop (the batch contract), a large multiple faster.
        """
        self._check_shards(shards)
        for sketch, piece in zip(self.locals, shards):
            _ingest(sketch, piece, batch_size=None)

    def feed_per_item(self, shards: list[Trace]) -> None:
        """The reference per-item feed loop.

        Kept as the explicit baseline the benchmarks (and equivalence
        tests) measure the batch doors against.
        """
        self._check_shards(shards)
        for sketch, piece in zip(self.locals, shards):
            update = sketch.update
            for x in piece:
                update(x)

    def feed_stream(self, chunks, policy: str = HASH, seed: int = 0) -> None:
        """Route a live stream of update batches to the workers.

        The scale-out door for workloads that are *generated* rather
        than pre-sharded (``repro.streams.scenarios``): each incoming
        chunk is split by the same policies :func:`shard` applies to a
        whole trace -- ``hash`` keys every item through one
        ``mix64_many`` call, ``round_robin`` continues a global arrival
        counter across chunks -- and each worker's slice goes through
        its local sketch's ``update_many``.  Because both policies are
        pure functions of (item, arrival index), feeding chunk by chunk
        delivers every worker exactly the subsequence (in order) that
        ``shard(whole_trace)`` + :meth:`feed` would, so the merged
        result is identical whichever door ran (pinned by
        ``tests/test_scenarios.py``).
        """
        workers = len(self.locals)
        offset = 0
        for chunk in chunks:
            items = np.ascontiguousarray(chunk, dtype=np.int64)
            keys = _worker_keys(items, workers, policy, seed, offset)
            offset += len(items)
            for worker in range(workers):
                part = items[keys == worker]
                if len(part):
                    self.update_many(worker, part)

    def feed_batched(self, shards: list[Trace], batch_size: int = 4096,
                     jobs: int = 1) -> None:
        """Chunked batched ingest, optionally fanned over processes.

        Serial mode feeds each worker's shard in ``batch_size`` chunks
        through ``update_many``.  With ``jobs > 1`` (and the ``fork``
        start method available, several workers, and serializable local
        sketches) each worker ingests its shard in a forked process and
        returns the sketch over the :mod:`repro.core.serialize` wire
        format -- exactly how a real deployment's collection points
        would ship state, and the same fork-pool pattern as
        ``repro experiments --jobs``; shipped locals come back on vector
        rows.  Either mode lands every local sketch in the same state as
        :meth:`feed_per_item`.
        """
        self._check_shards(shards)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if (jobs > 1 and len(self.locals) > 1
                and "fork" in multiprocessing.get_all_start_methods()
                and all(serializable(s) for s in self.locals)):
            global _FEED_STATE
            _FEED_STATE = (self.locals, shards, batch_size)
            try:
                ctx = multiprocessing.get_context("fork")
                with ctx.Pool(min(jobs, len(self.locals))) as pool:
                    blobs = pool.map(_feed_cell, range(len(self.locals)))
            finally:
                _FEED_STATE = None
            self.locals = [loads(blob) for blob in blobs]
            return
        for sketch, piece in zip(self.locals, shards):
            _ingest(sketch, piece, batch_size)

    def combined(self):
        """Merge all local sketches into a fresh global sketch.

        With several workers, locals are serialized and deserialized
        first -- the coordinator only ever sees the wire format,
        exactly as a real deployment would -- then folded with
        :func:`repro.core.ops.merge`, on vector rows.  A single worker
        *is* the coordinator: its sketch is returned directly (shared,
        not copied), with no pointless wire round-trip.
        """
        if len(self.locals) == 1:
            return self.locals[0]
        total = loads(dumps(self.locals[0]))
        for local in self.locals[1:]:
            ops.merge(total, loads(dumps(local)))
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DistributedSketch(workers={self.workers})"
