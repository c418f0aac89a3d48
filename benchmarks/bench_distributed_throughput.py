"""Micro-benchmark: per-item vs batched *sharded* ingest throughput.

Section V's scale-out story -- "parallelize the sketching of A and B
and then merge them" -- runs through ``DistributedSketch``.  This bench
measures what its batch door buys: each (sketch, engine) pair feeds the
same trace, hash-sharded, through the per-item reference
(``update(worker, x)`` over ``shard``) and through ``feed_stream``
(chunks of ``batch_size`` items per worker), and the combine
(serialize + ``ops.merge``) is timed separately.  Results land as a
text table in ``results/distributed_throughput.txt`` and as the
machine-readable perf-trajectory file ``results/BENCH_distributed.json``
(items/sec per sketch x engine x path, with the speedup vs the last
recorded run printed when one exists).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_distributed_throughput.py \
        [--length N] [--batch-size B] [--workers W] [--quick]

``--quick`` is the CI smoke mode: a short trace, same code paths.
"""

from __future__ import annotations

import argparse
import time

from _harness import emit_bench_json, emit_table, load_bench_json
from repro.core import (
    DistributedSketch,
    SalsaConservativeUpdate,
    SalsaCountMin,
    SalsaCountSketch,
)
from repro.core.row import SUM
from repro.experiments.runner import ingest_seconds, per_item_seconds
from repro.streams import dataset

#: name -> (engine -> local-sketch factory).  Sum-merge CMS is the
#: headline (its merged shards are bit-identical to the whole-stream
#: sketch); max-merge CMS, CUS, and CS cover the other merge policies.
FACTORIES = {
    "salsa-cms-sum": lambda engine: (
        lambda fam: SalsaCountMin(w=4096, d=4, s=8, merge=SUM,
                                  hash_family=fam, engine=engine)),
    "salsa-cms": lambda engine: (
        lambda fam: SalsaCountMin(w=4096, d=4, s=8,
                                  hash_family=fam, engine=engine)),
    "salsa-cus": lambda engine: (
        lambda fam: SalsaConservativeUpdate(w=4096, d=4, s=8,
                                            hash_family=fam,
                                            engine=engine)),
    "salsa-cs": lambda engine: (
        lambda fam: SalsaCountSketch(w=4096, d=5, s=8,
                                     hash_family=fam, engine=engine)),
}

#: sketch -> hash-family depth (must match the factory's d).
DEPTHS = {"salsa-cms-sum": 4, "salsa-cms": 4, "salsa-cus": 4,
          "salsa-cs": 5}

ENGINES = ("bitpacked", "vector")


def run_bench(length: int, batch_size: int, workers: int,
              dataset_name: str) -> tuple[list[str], dict]:
    """Measure every (sketch, engine); return (table lines, payload)."""
    trace = dataset(dataset_name, length, seed=0)
    header = (f"{'sketch':<14} {'engine':<10} {'per-item/s':>12} "
              f"{'batched/s':>12} {'speedup':>8} {'combine_s':>10}")
    lines = [
        f"distributed (sharded) ingestion throughput -- {trace.name}, "
        f"{len(trace):,} updates, {workers} workers (hash), "
        f"batch={batch_size} per worker",
        "(merged shard sketches are identical whichever feed door ran)",
        header,
        "-" * len(header),
    ]
    rows = []
    print(lines[0])
    print(header)
    print("-" * len(header))
    for name, make in FACTORIES.items():
        for engine in ENGINES:
            def dist():
                return DistributedSketch(make(engine), workers=workers,
                                         d=DEPTHS[name], seed=1)

            per_item = len(trace) / per_item_seconds(dist(), trace, seed=1)
            fed = dist()
            batched = len(trace) / ingest_seconds(
                fed, trace.chunks(batch_size * workers), seed=1)
            start = time.perf_counter()
            fed.combined()
            combine_s = time.perf_counter() - start
            line = (f"{name:<14} {engine:<10} {per_item:>12,.0f} "
                    f"{batched:>12,.0f} {batched / per_item:>7.2f}x "
                    f"{combine_s:>10.4f}")
            print(line)
            lines.append(line)
            rows.append({
                "sketch": name,
                "engine": engine,
                "per_item": round(per_item, 1),
                "batched": round(batched, 1),
                "speedup": round(batched / per_item, 2),
                "combine_s": round(combine_s, 5),
            })
    payload = {
        "bench": "distributed",
        "dataset": dataset_name,
        "length": length,
        "batch_size": batch_size,
        "workers": workers,
        "policy": "hash",
        "unit": "items_per_sec",
        "rows": rows,
    }
    return lines, payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=200_000)
    parser.add_argument("--batch-size", type=int, default=4096)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--dataset", default="ny18")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: short trace, same paths")
    args = parser.parse_args(argv)
    length = 20_000 if args.quick else args.length

    previous = load_bench_json("distributed")
    lines, payload = run_bench(length, args.batch_size, args.workers,
                               args.dataset)
    if previous is not None and previous.get("rows"):
        before = {(row["sketch"], row.get("engine")): row["batched"]
                  for row in previous["rows"]}
        deltas = [
            f"{row['sketch']}/{row['engine']}: "
            f"{row['batched'] / before[(row['sketch'], row['engine'])]:.2f}x"
            for row in payload["rows"]
            if before.get((row["sketch"], row["engine"]))
        ]
        if deltas:
            print("batched vs last recorded run: " + ", ".join(deltas))
    path = emit_table("distributed_throughput.txt", lines)
    print(f"wrote {path}")
    path = emit_bench_json("distributed", payload)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
