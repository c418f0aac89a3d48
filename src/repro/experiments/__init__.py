"""Experiment harness: regenerate every table/figure of the evaluation.

Usage::

    python -m repro.experiments fig10a      # one figure
    python -m repro.experiments --list      # enumerate figures

or through the benchmark suite (``pytest benchmarks/ --benchmark-only``),
which runs all of them and writes tables under ``results/``.
"""

from repro.experiments.runner import (
    ExperimentResult,
    Series,
    ingest_seconds,
    nrmse_of,
    per_item_seconds,
    run_on_arrival,
    run_updates,
    score,
    sweep,
    throughput_mops,
    using_jobs,
)
from repro.experiments.report import emit, format_table
from repro.experiments.registry import EXPERIMENTS, run
from repro.experiments.scenarios import (
    SCENARIO_SPECS,
    ScenarioSpec,
    using_scenario_grid,
)

__all__ = [
    "ExperimentResult",
    "Series",
    "run_on_arrival",
    "run_updates",
    "ingest_seconds",
    "per_item_seconds",
    "score",
    "throughput_mops",
    "sweep",
    "using_jobs",
    "nrmse_of",
    "emit",
    "format_table",
    "EXPERIMENTS",
    "run",
    "ScenarioSpec",
    "SCENARIO_SPECS",
    "using_scenario_grid",
]
