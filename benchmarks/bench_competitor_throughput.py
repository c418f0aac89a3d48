"""Micro-benchmark: batched vs per-item ingest for the competitor family.

PR 1/2 gave the SALSA half of the figure pipeline a vectorized
datapath; this bench measures what the matrix-kernel layer
(:mod:`repro.sketches._kernels`) buys the *competitor* half -- the
sketches SALSA is evaluated against in Figs 8-16, which previously ran
``update_many`` through the per-item Python loop.  Results land as a
text table in ``results/competitor_throughput.txt`` and as the
machine-readable perf-trajectory file
``results/BENCH_competitors.json`` (items/sec per sketch x path, with
the speedup vs the last recorded run printed when one exists).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_competitor_throughput.py \
        [--length N] [--batch-size B] [--quick]

``--quick`` is the CI smoke mode: a short trace, same code paths.
"""

from __future__ import annotations

import argparse

from _harness import emit_bench_json, emit_table, load_bench_json
from repro.experiments.runner import ingest_seconds, per_item_seconds
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


def run_bench(length: int, batch_size: int, dataset_name: str
              ) -> tuple[list[str], dict]:
    """Measure every factory; return (table lines, JSON payload)."""
    trace = dataset(dataset_name, length, seed=0)
    header = (f"{'sketch':<15} {'per-item/s':>12} {'batched/s':>12} "
              f"{'speedup':>8}")
    lines = [
        f"competitor batch ingestion throughput -- {trace.name}, "
        f"{len(trace):,} updates, batch={batch_size}",
        header,
        "-" * len(header),
    ]
    rows = []
    print(lines[0])
    print(header)
    print("-" * len(header))
    for name, factory in FACTORIES.items():
        # A fresh sketch per path, so neither run warms the other's
        # counters.
        per_item = len(trace) / per_item_seconds(factory(), trace)
        batched = len(trace) / ingest_seconds(factory(),
                                              trace.chunks(batch_size))
        line = (f"{name:<15} {per_item:>12,.0f} {batched:>12,.0f} "
                f"{batched / per_item:>7.2f}x")
        print(line)
        lines.append(line)
        rows.append({
            "sketch": name,
            "per_item": round(per_item, 1),
            "batched": round(batched, 1),
            "speedup": round(batched / per_item, 2),
        })
    payload = {
        "bench": "competitors",
        "dataset": dataset_name,
        "length": length,
        "batch_size": batch_size,
        "unit": "items_per_sec",
        "rows": rows,
    }
    return lines, payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=100_000)
    parser.add_argument("--batch-size", type=int, default=4096)
    parser.add_argument("--dataset", default="ny18")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: short trace, same paths")
    args = parser.parse_args(argv)
    length = 20_000 if args.quick else args.length

    previous = load_bench_json("competitors")
    lines, payload = run_bench(length, args.batch_size, args.dataset)
    if previous is not None and previous.get("rows"):
        before = {row["sketch"]: row["batched"]
                  for row in previous["rows"]}
        deltas = [
            f"{row['sketch']}: {row['batched'] / before[row['sketch']]:.2f}x"
            for row in payload["rows"] if before.get(row["sketch"])
        ]
        if deltas:
            print("batched vs last recorded run: " + ", ".join(deltas))
    path = emit_table("competitor_throughput.txt", lines)
    print(f"wrote {path}")
    path = emit_bench_json("competitors", payload)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
