"""Micro-benchmark: the scenario stress lab, measured.

Workload dynamics change which fast path a batch takes -- churned
elephants force merge-window replays, drift spreads inflow across the
universe, replay concentrates it -- so both ingest throughput *and*
accuracy are scenario-dependent at fixed memory.  This bench runs
every :data:`~repro.streams.scenarios.SCENARIOS` generator, at its
defaults, through a 64KB SALSA CMS, timing the per-item loop against chunked ``update_many`` ingest
(``runner.per_item_seconds`` / ``runner.ingest_seconds``) and scoring
the final state against the exact counts (``runner.score``).

Results land as a text table in ``results/scenario_throughput.txt``
and as the machine-readable perf-trajectory file
``results/BENCH_scenarios.json``: items/sec per scenario x path, each
the median of ``_harness.REPEATS`` timings on fresh sketches with its
quartile spread, plus the distinct keys and the final-state AAE.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_scenarios.py \
        [--length N] [--chunk B] [--memory BYTES]
"""

from __future__ import annotations

import argparse

import numpy as np

from _harness import ingest_rates, run_table
from repro.core import SalsaCountMin
from repro.experiments.runner import score
from repro.streams.scenarios import SCENARIO_NAMES, make_scenario


def measure(chunks: list, memory: int) -> dict[str, float]:
    """One timing of each ingest path of a scenario stream on a fresh
    SALSA CMS, then the batch-fed sketch's final-state accuracy."""
    items = np.concatenate(chunks)
    rates, fed = ingest_rates(
        lambda: SalsaCountMin.for_memory(memory, d=4, s=8, seed=0),
        items, chunks)
    distinct, aae, _ = score(fed, items)
    return rates | {"distinct": distinct, "aae": aae}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=200_000,
                        help="updates per scenario stream")
    parser.add_argument("--chunk", type=int, default=8192)
    parser.add_argument("--memory", type=int, default=64 * 1024)
    args = parser.parse_args(argv)
    if args.length < 1:
        parser.error(f"--length must be >= 1, got {args.length}")

    run_table("scenario_throughput", "scenarios",
              "scenario workload throughput + final-state AAE, SALSA CMS",
              {name: list(make_scenario(name).chunks(args.length, args.chunk,
                                                     seed=0))
               for name in SCENARIO_NAMES},
              lambda chunks: measure(chunks, args.memory),
              {"sketch": "salsa-cms", "memory_bytes": args.memory,
               "length": args.length, "chunk": args.chunk},
              key="scenario")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
