"""Micro-benchmark: batched vs per-item ingest for the competitor family.

PR 1/2 gave the SALSA half of the figure pipeline a vectorized
datapath; this bench measures what the matrix-kernel layer
(:mod:`repro.sketches._kernels`) buys the *competitor* half -- the
sketches SALSA is evaluated against in Figs 8-16, which previously ran
``update_many`` through the per-item Python loop.  Results land as a
text table in ``results/competitor_throughput.txt`` and as the
machine-readable perf-trajectory file
``results/BENCH_competitors.json``: items/sec per sketch x path, each
the median of ``_harness.REPEATS`` timings on fresh sketches with its
quartile spread.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_competitor_throughput.py \
        [--length N] [--batch-size B]
"""

from __future__ import annotations

import argparse

from _harness import ingest_rates, run_table
from repro.sketches import (
    ColdFilter,
    ConservativeUpdateSketch,
    CountMinSketch,
    CountSketch,
    ElasticSketch,
    NitroSketch,
    PyramidSketch,
    UnivMon,
)
from repro.streams import dataset

#: name -> zero-argument sketch factory (fresh state per measurement).
#: The first block is the fixed-width pair now ported onto the 2D
#: kernels; the second is the previously loop-only competitor family.
FACTORIES = {
    "cms": lambda: CountMinSketch(w=4096, d=4, seed=1),
    "cs": lambda: CountSketch(w=4096, d=5, seed=1),
    "nitro": lambda: NitroSketch(w=4096, d=5, p=0.1, seed=1),
    "elastic": lambda: ElasticSketch(heavy_buckets=1 << 10,
                                     light_memory=16 * 1024, seed=1),
    "univmon": lambda: UnivMon(w=1024, d=5, levels=16, heap_size=100,
                               seed=1),
    "coldfilter": lambda: ColdFilter(
        w1=4096, stage2=ConservativeUpdateSketch(w=4096, d=4, seed=2),
        d1=3, seed=1),
    "coldfilter-cms": lambda: ColdFilter(
        w1=4096, stage2=CountMinSketch(w=4096, d=4, seed=2), d1=3, seed=1),
    "pyramid": lambda: PyramidSketch(w1=8192, d=4, delta=8, seed=1),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=100_000)
    parser.add_argument("--batch-size", type=int, default=4096)
    parser.add_argument("--dataset", default="ny18")
    args = parser.parse_args(argv)

    trace = dataset(args.dataset, args.length, seed=0)
    run_table("competitor_throughput", "competitors",
              "competitor batch ingestion throughput", FACTORIES,
              lambda factory: ingest_rates(
                  factory, trace, trace.chunks(args.batch_size))[0],
              {"dataset": args.dataset, "length": args.length,
               "batch_size": args.batch_size})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
