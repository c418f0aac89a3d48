"""Shared benchmark plumbing.

Every figure benchmark regenerates one paper figure through the
experiment registry, printing its table(s) and writing them under
``results/``.  ``pedantic(rounds=1)`` because an experiment is itself a
repeated-trial measurement -- re-running it inside pytest-benchmark's
calibration loop would multiply runtimes for no statistical gain.

The throughput benches time every table through :func:`run_table`:
each case is measured :data:`REPEATS` times on fresh sketches and each
cell reports the median with its quartile spread, so a diff of two
runs can tell a change from host noise.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess

import numpy as np

from repro.experiments import emit, run
from repro.experiments.runner import ingest_seconds, per_item_seconds

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "results")

#: timings per case of a throughput table; the median and quartiles are
#: reported
REPEATS = 5


def regenerate(figure: str):
    """Run one figure's experiment and persist its tables."""
    return [emit(result, RESULTS_DIR) for result in run(figure)]


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

    Conventional payload shape (what :func:`run_table` writes)::

        {"bench": <name>, "dataset": ..., "length": .., "repeats": 5,
         "unit": "items_per_sec", "env": {...},
         "rows": [{"sketch": .., "per_item": .., "batched": ..,
                   "speedup": .., "quartiles": {"per_item": [q1, q3],
                                                ...}}, ...]}
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


def ingest_rates(factory, items, chunks, seed: int = 0):
    """Items/s of the per-item reference (``runner.per_item_seconds``)
    and of the batch door (``runner.ingest_seconds`` over ``chunks``),
    each on a fresh ``factory()``, so neither run warms the other's
    counters.  Returns the two rates and the batch-fed sketch."""
    per_item = len(items) / per_item_seconds(factory(), items, seed=seed)
    fed = factory()
    batched = len(items) / ingest_seconds(fed, chunks, seed=seed)
    return {"per_item": per_item, "batched": batched}, fed


def summarize(runs: list[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)`` of repeated readings."""
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return float(median), float(q1), float(q3)


def _sig(x: float) -> float:
    """``x`` to six significant digits, for the JSON rows."""
    return float(f"{x:.6g}")


def cell(median: float, q1: float, q3: float) -> str:
    """A table cell: the median and its quartile spread in percent."""
    spread = 100 * (q3 - q1) / median if median else 0.0
    value = f"{median:>12,.0f}" if abs(median) >= 100 else f"{median:>12.4f}"
    return f"{value} ±{spread:>3.0f}%"


def environment() -> dict:
    """What a run was measured on: interpreter, NumPy, CPUs, commit
    (``git_sha`` is None outside a git checkout)."""
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True, cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        git_sha = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "git_sha": git_sha}


def run_table(table: str, bench: str, title: str, cases: dict, measure,
              meta: dict, key: str = "sketch") -> dict:
    """Time every case, then print and record the table.

    ``measure(case)`` takes one reading of each measure on fresh
    sketches: a dict holding at least ``per_item`` and ``batched``
    items/s (see :func:`ingest_rates`).  Each of ``cases`` (label ->
    case) is measured once per round for :data:`REPEATS` rounds, so a
    slow spell of the host widens every case's spread instead of
    shifting one case, and every measure is reduced to its median and
    quartiles.  Writes ``results/<table>.txt`` and
    ``results/BENCH_<bench>.json`` (``meta`` describes the run), prints
    each case's batched median against the last recorded run, and
    returns the JSON payload.
    """
    runs = {label: [] for label in cases}
    for _ in range(REPEATS):
        for label, case in cases.items():
            runs[label].append(measure(case))
    stats = {label: {m: summarize([r[m] for r in readings])
                     for m in readings[0]}
             for label, readings in runs.items()}

    width = max(len(key), *map(len, cases))
    header = (f"{key:<{width}}" + "".join(f" {m:>18}" for m in
                                          next(iter(stats.values())))
              + f" {'speedup':>8}")
    lines = [f"{title} -- " + ", ".join(f"{k}={v}" for k, v in meta.items()),
             f"(median of {REPEATS} runs ± quartile spread (q3 - q1) / "
             f"median; speedup = batched / per_item)",
             header, "-" * len(header)]
    rows = []
    for label, cells in stats.items():
        speedup = cells["batched"][0] / cells["per_item"][0]
        lines.append(f"{label:<{width}}" + "".join(f" {cell(*s)}"
                                                   for s in cells.values())
                     + f" {speedup:>7.2f}x")
        rows.append({key: label, "speedup": round(speedup, 2)}
                    | {m: _sig(s[0]) for m, s in cells.items()}
                    | {"quartiles": {m: [_sig(q) for q in s[1:]]
                                     for m, s in cells.items()}})
    print("\n".join(lines))

    before = {row.get(key): row.get("batched")
              for row in (load_bench_json(bench) or {}).get("rows", [])}
    deltas = [f"{row[key]}: {row['batched'] / before[row[key]]:.2f}x"
              for row in rows if before.get(row[key])]
    if deltas:
        print("batched vs last recorded run: " + ", ".join(deltas))
    payload = {"bench": bench, **meta, "repeats": REPEATS,
               "unit": "items_per_sec", "rows": rows, "env": environment()}
    print(f"wrote {emit_table(table + '.txt', lines)}")
    print(f"wrote {emit_bench_json(bench, payload)}")
    return payload
