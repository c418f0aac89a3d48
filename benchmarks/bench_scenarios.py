"""Micro-benchmark: the scenario stress lab, measured.

Workload dynamics change which fast path a batch takes -- churned
elephants force merge-window replays, drift spreads inflow across the
universe, replay concentrates it -- so both ingest throughput *and*
accuracy are scenario-dependent at fixed memory.  This bench runs
every tuned :data:`~repro.experiments.scenarios.SCENARIO_SPECS` preset
through a 64KB SALSA CMS on both row engines, timing the per-item loop
against chunked ``update_many`` ingest (``runner.per_item_seconds`` /
``runner.ingest_seconds``) and scoring the final state against the
exact counts (``runner.score``).

Results land as a text table in ``results/scenario_throughput.txt``
and as the machine-readable perf-trajectory file
``results/BENCH_scenarios.json`` (items/sec + AAE per
scenario x engine x path, with the speedup vs the last recorded run
printed when one exists).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_scenarios.py \
        [--length N] [--chunk B] [--memory BYTES] [--quick]

``--quick`` is the CI smoke mode: short streams, same code paths.
"""

from __future__ import annotations

import argparse

import numpy as np

from _harness import emit_bench_json, emit_table, load_bench_json
from repro.core import SalsaCountMin
from repro.experiments.runner import ingest_seconds, per_item_seconds, score
from repro.experiments.scenarios import SCENARIO_SPECS

ENGINES = ("bitpacked", "vector")


def run_bench(length: int, chunk: int, memory: int
              ) -> tuple[list[str], dict]:
    """Measure every (scenario, engine); return (table lines, payload)."""
    header = (f"{'scenario':<12} {'engine':<10} {'distinct':>9} "
              f"{'per-item/s':>12} {'batched/s':>12} {'speedup':>8} "
              f"{'AAE':>9}")
    lines = [
        f"scenario workload throughput + accuracy -- SALSA CMS "
        f"{memory:,}B, {length:,} updates/scenario, chunk={chunk}",
        "(AAE is final state vs exact)",
        header,
        "-" * len(header),
    ]
    rows = []
    print(lines[0])
    print(header)
    print("-" * len(header))
    for name in sorted(SCENARIO_SPECS):
        chunks = list(SCENARIO_SPECS[name].build().chunks(length, chunk,
                                                          seed=0))
        items = np.concatenate(chunks)
        for engine in ENGINES:
            def fresh():
                return SalsaCountMin.for_memory(memory, d=4, s=8,
                                                seed=0, engine=engine)

            per_item = len(items) / per_item_seconds(fresh(), items)
            sketch = fresh()
            batched = len(items) / ingest_seconds(sketch, chunks)
            distinct, err, _ = score(sketch, items)
            line = (f"{name:<12} {engine:<10} {distinct:>9,} "
                    f"{per_item:>12,.0f} {batched:>12,.0f} "
                    f"{batched / per_item:>7.2f}x {err:>9.4f}")
            print(line)
            lines.append(line)
            rows.append({
                "scenario": name,
                "engine": engine,
                "distinct": distinct,
                "per_item": round(per_item, 1),
                "batched": round(batched, 1),
                "speedup": round(batched / per_item, 2),
                "aae": round(err, 5),
            })
    payload = {
        "bench": "scenarios",
        "sketch": "salsa-cms",
        "memory_bytes": memory,
        "length": length,
        "chunk": chunk,
        "unit": "items_per_sec",
        "rows": rows,
    }
    return lines, payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=200_000,
                        help="updates per scenario stream")
    parser.add_argument("--chunk", type=int, default=8192)
    parser.add_argument("--memory", type=int, default=64 * 1024)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: short streams, same paths")
    args = parser.parse_args(argv)
    length = 20_000 if args.quick else args.length
    if length < 1:
        parser.error(f"--length must be >= 1, got {length}")

    previous = load_bench_json("scenarios")
    lines, payload = run_bench(length, args.chunk, args.memory)
    if previous is not None and previous.get("rows"):
        before = {(row["scenario"], row.get("engine")): row["batched"]
                  for row in previous["rows"]}
        deltas = [
            f"{row['scenario']}/{row['engine']}: "
            f"{row['batched'] / before[(row['scenario'], row['engine'])]:.2f}x"
            for row in payload["rows"]
            if before.get((row["scenario"], row["engine"]))
        ]
        if deltas:
            print("batched vs last recorded run: " + ", ".join(deltas))
    path = emit_table("scenario_throughput.txt", lines)
    print(f"wrote {path}")
    path = emit_bench_json("scenarios", payload)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
