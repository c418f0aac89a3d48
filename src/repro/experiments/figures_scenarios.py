"""Scenario sweeps: accuracy and speed across workload dynamics.

Beyond-the-paper experiments over the :mod:`repro.streams.scenarios`
stress lab, each scenario at its generator's defaults:

* :func:`scenario_error` -- final-state AAE vs memory for each
  requested scenario, one table per scenario, the usual sketch lineup
  as series.  Shows where self-adjusting merges win (stationary,
  replay) and where workload dynamics erode them (drift, churn).
* :func:`scenario_speed` -- batched ingest throughput per scenario vs
  batch size: workload dynamics change *which* fast path a batch takes
  (churned elephants force merge replays), so throughput is
  scenario-dependent even at fixed memory.

Both take ``scenarios`` (names, default all) and ``shards``, which
``python -m repro.experiments --scenario/--shards`` pass through;
``using_jobs`` fans the accuracy cells over fork workers (speed cells
always run serial).
"""

from __future__ import annotations

from repro.core import DistributedSketch
from repro.experiments import algorithms as alg
from repro.experiments import config
from repro.experiments.runner import (
    ExperimentResult,
    ingest_seconds,
    score,
    sweep,
    throughput_mops,
)
from repro.streams.model import Trace
from repro.streams.scenarios import SCENARIO_NAMES, SCENARIOS, make_scenario

#: Chunk size every scenario sweep feeds through ``update_many``.
CHUNK = 8192

#: Per-sweep trace cache: one scenario stream is shared by the whole
#: (sketch, memory, trial) grid.  Pre-materialized before ``sweep`` so
#: fork workers inherit the arrays instead of regenerating per cell.
_traces: dict[tuple, Trace] = {}


def _scenario_trace(name: str, length: int, trial: int) -> Trace:
    key = (name, length, trial)
    if key not in _traces:
        _traces[key] = make_scenario(name).trace(length, seed=trial)
    return _traces[key]


def scenario_grid(scenarios=None, shards: int = 1) -> tuple[str, ...]:
    """The scenario names a sweep runs (``None``: all), checked with
    its shard count; ``ValueError`` for an unknown name or
    ``shards < 1``."""
    names = SCENARIO_NAMES if scenarios is None else tuple(scenarios)
    for name in names:
        make_scenario(name)          # raises for an unknown name
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return names


def scenario_error(length: int | None = None, trials: int | None = None,
                   scenarios=None, shards: int = 1
                   ) -> list[ExperimentResult]:
    """Final-state AAE vs memory, one table per requested scenario.

    With ``shards > 1`` each cell shards the stream chunk by chunk
    through :meth:`DistributedSketch.feed_stream` and measures the
    *merged* sketch -- only the mergeable SALSA family runs then, since
    the fixed-width baselines have no ``ops.merge`` door.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    names = scenario_grid(scenarios, shards)
    memories = [float(m) for m in config.MEMORY_SWEEP[:3]]

    def single(build):
        """Factory for the unsharded lineup: the sketch itself."""
        return lambda mem, t: build(int(mem), t)

    def sharded(build):
        """Factory for sharded cells: a DistributedSketch whose locals
        all come from the cell's seed (shared hash functions -- the
        merge precondition), same as ``repro run --shards``."""
        return lambda mem, t: DistributedSketch(
            lambda fam: build(int(mem), t), workers=shards, seed=t)

    wrap = sharded if shards > 1 else single
    factories = {"SALSA CMS": wrap(alg.salsa_cms),
                 "SALSA CUS": wrap(alg.salsa_cus)}
    if shards == 1:
        factories["CMS 32bit"] = single(alg.baseline_cms)
        factories["CUS 32bit"] = single(alg.baseline_cus)

    results = []
    for name in names:
        for trial in range(trials):          # pre-warm the shared cache
            _scenario_trace(name, length, trial)
        result = ExperimentResult(
            figure=f"scenario_error_{name}",
            title=(f"Scenario '{name}': {SCENARIOS[name].summary()}"
                   + (f" [{shards} shards]" if shards > 1 else "")),
            xlabel="memory_bytes", ylabel="AAE (final state)",
        )

        def measure(sketch, mem, trial, name=name):
            trace = _scenario_trace(name, length, trial)
            ingest_seconds(sketch, trace.chunks(CHUNK), seed=trial)
            return score(sketch, trace.items)[1]

        sweep(result, memories, factories, measure, trials)
        results.append(result)
    return results


def scenario_speed(length: int | None = None, trials: int | None = None,
                   scenarios=None, shards: int = 1) -> ExperimentResult:
    """Batched ingest throughput (Mops) per scenario vs batch size.

    One series per requested scenario, all through the same 32KB
    SALSA CMS.  ``shards`` is checked as
    :func:`scenario_error` checks it, but every cell times one
    unsharded sketch.  Wall-clock cells always run serial (``jobs=1``),
    like every other speed figure.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    names = scenario_grid(scenarios, shards)
    result = ExperimentResult(
        figure="scenario_speed",
        title="SALSA CMS batched ingest across scenario workloads",
        xlabel="batch_size", ylabel="Mops",
    )
    for name in names:
        for trial in range(trials):
            _scenario_trace(name, length, trial)

    # ``measure`` needs to know which series' cell it is evaluating, so
    # each factory returns (name, sketch) and ``measure`` unpacks.
    factories = {
        name: (lambda batch, t, name=name: (
            name, alg.salsa_cms(32 * 1024, seed=t)))
        for name in names
    }

    def measure(cell, batch, trial):
        name, sketch = cell
        return throughput_mops(sketch, _scenario_trace(name, length, trial),
                               int(batch))

    return sweep(result, (1024.0, 4096.0, 16384.0), factories, measure,
                 trials, jobs=1)
