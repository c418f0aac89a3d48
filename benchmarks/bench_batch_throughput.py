"""Micro-benchmark: per-item vs batched ingestion and query throughput.

The SALSA paper's pitch is throughput-per-bit; this bench checks that
the batch pipeline (vectorized hashing + merge-free bulk counter
updates; the raw stream through ``SalsaRow.add_many`` for the
fixed-width and SALSA CMS and SALSA CS/AEE, the native walk for both
CUS, duplicate pre-aggregation for the order-free competitors) actually
buys throughput over the per-item loop, per sketch, on a skewed trace.
The fixed-width AEE shares SALSA AEE's batch door: at 8-bit counters
it samples (``p < 1``) almost at once, where the batch walks item by
item and its row reads about 1x; ``aee-32`` stays at ``p == 1``, where
a batch in which no add saturates takes the bulk path.
Results land in ``results/batch_throughput.txt`` as items/sec for both
ingest paths, next to the query side on the fed sketch: per-item
``query`` and ``query_many`` per chunk.  Every cell is the median of
``_harness.REPEATS`` timings on fresh sketches with its quartile
spread.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_batch_throughput.py \
        [--length N] [--batch-size B]
"""

from __future__ import annotations

import argparse
import time

from _harness import ingest_rates, run_table
from repro import (
    SalsaAeeCountMin,
    SalsaConservativeUpdate,
    SalsaCountMin,
    SalsaCountSketch,
)
from repro.core.row import SUM
from repro.sketches import (
    AbcSketch,
    AeeSketch,
    ConservativeUpdateSketch,
    CountMinSketch,
    CountSketch,
    SpaceSaving,
)
from repro.streams import dataset

#: name -> zero-argument sketch factory (fresh state per measurement).
FACTORIES = {
    "cms": lambda: CountMinSketch(w=4096, d=4, seed=1),
    "cus": lambda: ConservativeUpdateSketch(w=4096, d=4, seed=1),
    "cs": lambda: CountSketch(w=4096, d=5, seed=1),
    "aee": lambda: AeeSketch(w=4096, d=4, counter_bits=8, seed=1),
    "aee-32": lambda: AeeSketch(w=4096, d=4, counter_bits=32, seed=1),
    "abc": lambda: AbcSketch(w=4096, d=4, s=8, seed=1),
    "spacesaving": lambda: SpaceSaving(k=1024),
    "salsa-cms": lambda: SalsaCountMin(w=4096, d=4, s=8, seed=1),
    "salsa-cms-sum": lambda: SalsaCountMin(w=4096, d=4, s=8, merge=SUM,
                                           seed=1),
    "salsa-cs": lambda: SalsaCountSketch(w=4096, d=5, s=8, seed=1),
    "salsa-cus": lambda: SalsaConservativeUpdate(w=4096, d=4, s=8, seed=1),
    "salsa-aee": lambda: SalsaAeeCountMin(w=4096, d=4, s=8, seed=1),
}


def query_rates(sketch, trace, batch_size: int) -> dict[str, float]:
    """Items/s of per-item ``query`` and of ``query_many`` per chunk
    over ``trace`` on a fed ``sketch``.  The keys and chunks are built
    before each clock starts, as for the ingest clock."""
    keys = trace.items.tolist()
    chunks = list(trace.chunks(batch_size))
    query = sketch.query
    start = time.perf_counter()
    for x in keys:
        query(x)
    per_item = time.perf_counter() - start
    start = time.perf_counter()
    for chunk in chunks:
        sketch.query_many(chunk)
    batched = time.perf_counter() - start
    return {"query_per_item": len(keys) / per_item,
            "query_many": len(keys) / batched}


def measure(factory, trace, batch_size: int) -> dict[str, float]:
    """One timing of each ingest path on a fresh sketch, then of both
    query doors on the batch-fed one, in items/s."""
    rates, fed = ingest_rates(factory, trace, trace.chunks(batch_size))
    return rates | query_rates(fed, trace, batch_size)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=200_000)
    parser.add_argument("--batch-size", type=int, default=4096)
    parser.add_argument("--dataset", default="ny18")
    args = parser.parse_args(argv)

    trace = dataset(args.dataset, args.length, seed=0)
    meta = {"dataset": args.dataset, "length": args.length,
            "batch_size": args.batch_size}
    run_table("batch_throughput", "sketches",
              "batch ingestion and query throughput", FACTORIES,
              lambda factory: measure(factory, trace, args.batch_size), meta)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
