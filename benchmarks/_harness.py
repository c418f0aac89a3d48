"""Shared benchmark plumbing.

Every benchmark regenerates one paper figure through the experiment
registry, printing its table(s) and writing them under ``results/``.
``pedantic(rounds=1)`` because an experiment is itself a repeated-trial
measurement -- re-running it inside pytest-benchmark's calibration loop
would multiply runtimes for no statistical gain.
"""

from __future__ import annotations

import json
import os

from repro.experiments import emit, run

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "results")


def regenerate(figure: str):
    """Run one figure's experiment and persist its tables."""
    paths = [emit(result) for result in run(figure)]
    return paths


def bench_figure(benchmark, figure: str) -> None:
    """Benchmark wrapper: one timed regeneration of ``figure``."""
    benchmark.pedantic(regenerate, args=(figure,), rounds=1, iterations=1)


def emit_table(name: str, lines: list[str]) -> str:
    """Write a plain-text benchmark table under ``results/``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def emit_bench_json(name: str, payload: dict) -> str:
    """Write a machine-readable benchmark result as
    ``results/BENCH_<name>.json`` (the perf trajectory: stable keys,
    sorted, so future PRs can diff runs).

    Conventional payload shape::

        {"bench": <name>, "dataset": ..., "length": ..,
         "batch_size": .., "unit": "items_per_sec",
         "rows": [{"sketch": .., "per_item": .., "batched": ..,
                   "speedup": ..}, ...]}
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_bench_json(name: str) -> dict | None:
    """Read back a previously emitted ``BENCH_<name>.json`` (or None),
    so a benchmark can report the delta against the last recorded run.
    """
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)
