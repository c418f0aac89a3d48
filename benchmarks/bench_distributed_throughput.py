"""Micro-benchmark: per-item vs batched *sharded* ingest throughput.

Section V's scale-out story -- "parallelize the sketching of A and B
and then merge them" -- runs through ``DistributedSketch``.  This bench
measures what its batch door buys: each sketch feeds the same trace, hash-sharded, through the
per-item reference (``update(worker, x)`` over ``shard``) and through
``feed_stream`` (chunks of ``batch_size`` items per worker), and the
combine (serialize + ``ops.merge``) is timed separately.  The merged
shard sketches are identical whichever feed door ran.  Results land as
a text table in ``results/distributed_throughput.txt`` and as the
machine-readable perf-trajectory file ``results/BENCH_distributed.json``:
items/sec per sketch x path and combine seconds, each the median of
``_harness.REPEATS`` timings on fresh sketches with its quartile
spread.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_distributed_throughput.py \
        [--length N] [--batch-size B] [--workers W]
"""

from __future__ import annotations

import argparse
import time
from functools import partial

from _harness import ingest_rates, run_table
from repro.core import (
    DistributedSketch,
    SalsaConservativeUpdate,
    SalsaCountMin,
    SalsaCountSketch,
)
from repro.core.row import SUM
from repro.streams import dataset

#: name -> (rows d, local-sketch factory over the shared hash family).
#: Sum-merge CMS is the headline (its merged shards are bit-identical
#: to the whole-stream sketch); max-merge CMS, CUS, and CS cover the
#: other merge policies.
FACTORIES = {
    "salsa-cms-sum": (4, lambda fam: SalsaCountMin(
        w=4096, d=4, s=8, merge=SUM, hash_family=fam)),
    "salsa-cms": (4, lambda fam: SalsaCountMin(
        w=4096, d=4, s=8, hash_family=fam)),
    "salsa-cus": (4, lambda fam: SalsaConservativeUpdate(
        w=4096, d=4, s=8, hash_family=fam)),
    "salsa-cs": (5, lambda fam: SalsaCountSketch(
        w=4096, d=5, s=8, hash_family=fam)),
}


def measure(factory, trace, batch_size: int, workers: int
            ) -> dict[str, float]:
    """One timing of each sharded ingest path on a fresh
    ``DistributedSketch``, then of combining the batch-fed one."""
    rates, fed = ingest_rates(factory, trace,
                              trace.chunks(batch_size * workers), seed=1)
    start = time.perf_counter()
    fed.combined()
    return rates | {"combine_s": time.perf_counter() - start}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=200_000)
    parser.add_argument("--batch-size", type=int, default=4096)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--dataset", default="ny18")
    args = parser.parse_args(argv)

    trace = dataset(args.dataset, args.length, seed=0)
    run_table("distributed_throughput", "distributed",
              "distributed (sharded) ingestion throughput (batch_size "
              "per worker)",
              {name: partial(DistributedSketch, local, workers=args.workers,
                             d=d, seed=1)
               for name, (d, local) in FACTORIES.items()},
              lambda factory: measure(factory, trace, args.batch_size,
                                      args.workers),
              {"dataset": args.dataset, "length": args.length,
               "batch_size": args.batch_size, "workers": args.workers,
               "policy": "hash"})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
