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
``query`` and ``query_many`` per chunk.  Each cell of that table is timed
:data:`REPEATS` times on fresh sketches and reports the median with
its quartile spread ((q3 - q1) / median), so a diff of two runs can
tell a change from host noise.  The SALSA sketches are
additionally measured under **both row engines** (``bitpacked``
reference vs ``vector`` NumPy) in ``results/engine_throughput.txt`` --
same estimates by contract, very different speed.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_batch_throughput.py \
        [--length N] [--batch-size B]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from _harness import emit_bench_json, emit_table
from repro import (
    SalsaAeeCountMin,
    SalsaConservativeUpdate,
    SalsaCountMin,
    SalsaCountSketch,
)
from repro.core.row import SUM
from repro.experiments.runner import ingest_seconds, per_item_seconds
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

#: name -> engine-parameterized factory for the per-engine table.
ENGINE_FACTORIES = {
    "salsa-cms": lambda engine: SalsaCountMin(
        w=4096, d=4, s=8, seed=1, engine=engine),
    "salsa-cms-sum": lambda engine: SalsaCountMin(
        w=4096, d=4, s=8, merge=SUM, seed=1, engine=engine),
    "salsa-cs": lambda engine: SalsaCountSketch(
        w=4096, d=5, s=8, seed=1, engine=engine),
    "salsa-cus": lambda engine: SalsaConservativeUpdate(
        w=4096, d=4, s=8, seed=1, engine=engine),
    "salsa-aee": lambda engine: SalsaAeeCountMin(
        w=4096, d=4, s=8, seed=1, engine=engine),
}

ENGINES = ("bitpacked", "vector")

#: timings per cell of the sketch table; the median and quartiles are
#: reported
REPEATS = 5

#: the sketch table's measures, in column order
MEASURES = ("per_item", "batched", "query_per_item", "query_many")


def query_rates(sketch, trace, batch_size: int) -> tuple[float, float]:
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
    return len(keys) / per_item, len(keys) / batched


def measure(factory, trace, batch_size: int) -> dict[str, float]:
    """One timing of each measure, in items/s.  A fresh sketch per
    ingest path, so neither run warms the other's counters; the query
    side runs on the batch-fed one."""
    per_item = len(trace) / per_item_seconds(factory(), trace)
    fed = factory()
    batched = len(trace) / ingest_seconds(fed, trace.chunks(batch_size))
    query, query_many = query_rates(fed, trace, batch_size)
    return dict(zip(MEASURES, (per_item, batched, query, query_many)))


def summarize(runs: list[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)`` of repeated items/s readings."""
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return float(median), float(q1), float(q3)


def cell(median: float, q1: float, q3: float) -> str:
    """A table cell: the median and its quartile spread in percent."""
    return f"{median:>12,.0f} ±{100 * (q3 - q1) / median:>3.0f}%"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=200_000)
    parser.add_argument("--batch-size", type=int, default=4096)
    parser.add_argument("--dataset", default="ny18")
    args = parser.parse_args(argv)

    trace = dataset(args.dataset, args.length, seed=0)

    header = (f"{'sketch':<14} {'per-item/s':>18} {'batched/s':>18} "
              f"{'speedup':>8} {'query/s':>18} {'query_many/s':>18}")
    lines = [
        f"batch ingestion throughput -- {trace.name}, "
        f"{len(trace):,} updates, batch={args.batch_size}",
        f"(median of {REPEATS} runs ± quartile spread (q3 - q1) / median)",
        header,
        "-" * len(header),
    ]
    for line in lines:
        print(line)
    rows = []
    for name, factory in FACTORIES.items():
        runs = [measure(factory, trace, args.batch_size)
                for _ in range(REPEATS)]
        stats = {m: summarize([run[m] for run in runs]) for m in MEASURES}
        speedup = stats["batched"][0] / stats["per_item"][0]
        line = (f"{name:<14} {cell(*stats['per_item'])} "
                f"{cell(*stats['batched'])} {speedup:>7.2f}x "
                f"{cell(*stats['query_per_item'])} "
                f"{cell(*stats['query_many'])}")
        print(line)
        lines.append(line)
        rows.append({"sketch": name, "speedup": round(speedup, 2)}
                    | {m: round(stats[m][0], 1) for m in MEASURES}
                    | {"quartiles": {m: [round(q, 1) for q in stats[m][1:]]
                                     for m in MEASURES}})
    path = emit_table("batch_throughput.txt", lines)
    print(f"wrote {path}")
    path = emit_bench_json("sketches", {
        "bench": "sketches", "dataset": args.dataset,
        "length": args.length, "batch_size": args.batch_size,
        "repeats": REPEATS, "unit": "items_per_sec", "rows": rows,
    })
    print(f"wrote {path}")

    header = (f"{'sketch':<14} {'engine':<10} {'per-item/s':>12} "
              f"{'batched/s':>12} {'speedup':>8}")
    elines = [
        f"row-engine ingestion throughput -- {trace.name}, "
        f"{len(trace):,} updates, batch={args.batch_size}",
        "(estimates are bit-identical across engines; only speed moves)",
        header,
        "-" * len(header),
    ]
    print(elines[0])
    print(header)
    print("-" * len(header))
    erows = []
    for name, factory in ENGINE_FACTORIES.items():
        for engine in ENGINES:
            per_item = len(trace) / per_item_seconds(factory(engine), trace)
            batched = len(trace) / ingest_seconds(
                factory(engine), trace.chunks(args.batch_size))
            line = (f"{name:<14} {engine:<10} {per_item:>12,.0f} "
                    f"{batched:>12,.0f} {batched / per_item:>7.2f}x")
            print(line)
            elines.append(line)
            erows.append({"sketch": name, "engine": engine,
                          "per_item": round(per_item, 1),
                          "batched": round(batched, 1),
                          "speedup": round(batched / per_item, 2)})
    path = emit_table("engine_throughput.txt", elines)
    print(f"wrote {path}")
    path = emit_bench_json("engines", {
        "bench": "engines", "dataset": args.dataset,
        "length": args.length, "batch_size": args.batch_size,
        "unit": "items_per_sec", "rows": erows,
    })
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
