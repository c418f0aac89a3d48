"""Distributed sketching: partition, sketch locally, merge centrally.

Section V motivates sketch merging with "we can parallelize the
sketching of A and B and then merge them" -- the standard scale-out
deployment where each worker (core, NIC queue, collection point)
sketches its shard and a coordinator combines the results.  This module
packages that pattern:

* :func:`shard` -- split a trace into per-worker shards (hash or
  round-robin partitioning), with the hash policy vectorized through
  :func:`repro.hashing.mix64_keyed` (bit-identical to the per-item
  ``mix64`` walk it replaced);
* :class:`DistributedSketch` -- one local SALSA sketch per worker over
  a shared :class:`~repro.hashing.HashFamily`.
  :meth:`~DistributedSketch.feed_stream` is its one batch door: it
  splits each chunk of a stream (a trace's chunks or a live scenario
  generator) by the same policies and hands each worker its slice;
  :meth:`~DistributedSketch.update` is the per-item reference.
  :meth:`~DistributedSketch.combined` merges the locals into one global
  sketch via :func:`repro.core.ops.merge`, with
  :func:`repro.core.serialize.dumps` providing the wire format.

The correctness fact the tests pin down: *merging the shard sketches
equals sketching the whole stream* (exactly, counter-for-counter, for
sum-merge SALSA CMS -- see the order-invariance tests for why),
whatever the chunk split or shard policy.  A Count-Sketch
counter's layout depends on the order of its signed deltas, so there
only each superblock's total is order-free.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core import ops
from repro.core.serialize import dumps, loads, shippable
from repro.hashing import HashFamily, mix64, mix64_keyed
from repro.sketches.base import as_batch
from repro.streams.model import Trace

HASH = "hash"
ROUND_ROBIN = "round_robin"


def _worker_keys(items: np.ndarray, workers: int, policy: str, seed: int,
                 offset: int = 0) -> np.ndarray:
    """Worker index of each item under a partition ``policy``.

    ``hash`` keys on the item: ``mix64(x ^ mix64(seed)) % workers`` for
    the whole batch in one :func:`~repro.hashing.mix64_keyed` call
    (bit-identical to the per-item mixer).
    ``round_robin`` keys on the arrival index; ``offset`` counts the
    arrivals before ``items``.
    """
    if policy == HASH:
        return (mix64_keyed(items, mix64(seed))
                % np.uint64(workers)).astype(np.int64)
    if policy == ROUND_ROBIN:
        return (offset + np.arange(len(items))) % workers
    raise ValueError(f"unknown policy {policy!r}")


def _split(keys: np.ndarray, workers: int) -> list[np.ndarray]:
    """Each worker's positions in ``keys``, in arrival order: one
    stable sort of the worker ids, cut where each worker's run ends.
    The ids sort at their smallest unsigned width, so up to 65,536
    workers NumPy radix-sorts them."""
    order = np.argsort(keys.astype(np.min_scalar_type(workers - 1)),
                       kind="stable")
    return np.split(order, np.cumsum(np.bincount(keys,
                                                 minlength=workers))[:-1])


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
        Trace(trace.items[pos], name=f"{trace.name}/shard{worker}")
        for worker, pos in enumerate(_split(keys, workers))
    ]


class DistributedSketch:
    """One sketch per worker plus a merge step.

    Parameters
    ----------
    factory:
        Callable ``(hash_family) -> sketch`` building one local sketch
        with an ``update_many`` door.  All workers share the family
        (required for merging).
    workers:
        Number of local sketches.  Above one, :meth:`combined` ships
        each local through :func:`~repro.core.serialize.dumps`, so a
        local the codec cannot serialize raises ``ValueError`` here.
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
        self.locals = [factory(self.family) for _ in range(workers)]
        if workers > 1:
            for local in self.locals:
                if not shippable(local):
                    raise ValueError(
                        f"{type(local).__name__} cannot be sharded: "
                        f"serialize.dumps cannot ship it to combine "
                        f"{workers} workers")

    @property
    def workers(self) -> int:
        return len(self.locals)

    def update(self, worker: int, item: int, value: int = 1) -> None:
        """Route one update to a worker's local sketch: the per-item
        reference :meth:`feed_stream` is checked against."""
        if not (isinstance(worker, (int, np.integer))
                and not isinstance(worker, bool)
                and 0 <= worker < len(self.locals)):
            raise ValueError(
                f"worker must be an integer in [0, {len(self.locals)}), "
                f"got {worker!r}"
            )
        self.locals[worker].update(item, value)

    def feed_stream(self, chunks, policy: str = HASH, seed: int = 0) -> None:
        """Route a stream of update batches to the workers.

        Each chunk is a batch as :func:`~repro.sketches.base.as_batch`
        takes it: 1-D integer keys with unit weights, or a
        :class:`~repro.streams.WeightedTrace` whose values travel with
        its keys.  Anything else raises ``ValueError`` before a worker
        sees the chunk.  The chunk is split by the policies
        :func:`shard` applies to a whole trace -- ``hash`` keys every
        item through one ``mix64_keyed`` call, ``round_robin`` continues
        a global arrival counter across chunks -- and each worker's
        slice goes through its local sketch's ``update_many``.  Both
        policies are pure functions of (item, arrival index), so every
        worker gets exactly the subsequence, in order, that
        ``shard(whole_trace)`` gives it, whatever the chunk split.
        Chunks of about ``batch_size * workers`` items hand each
        worker's ``update_many`` about ``batch_size``.
        """
        workers = len(self.locals)
        offset = 0
        for chunk in chunks:
            items, values = as_batch(chunk)
            if not isinstance(getattr(chunk, "values", None), np.ndarray):
                values = None   # unit weights: each local makes its own
            keys = _worker_keys(items, workers, policy, seed, offset)
            offset += len(items)
            for sketch, pos in zip(self.locals, _split(keys, workers)):
                if len(pos):
                    sketch.update_many(
                        items[pos], None if values is None else values[pos])

    def combined(self):
        """Merge all local sketches into a fresh global sketch.

        With several workers, locals are serialized and deserialized
        first -- the coordinator only ever sees the wire format,
        exactly as a real deployment would -- then folded with
        :func:`repro.core.ops.merge`.  A single worker
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
