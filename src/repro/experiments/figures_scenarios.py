"""Scenario sweeps: accuracy and speed across workload dynamics.

Beyond-the-paper experiments over the :mod:`repro.streams.scenarios`
stress lab:

* :func:`scenario_error` -- final-state AAE vs memory for each scenario
  in the active grid, one table per scenario, the usual sketch lineup
  as series.  Shows where self-adjusting merges win (stationary,
  replay) and where workload dynamics erode them (drift, churn).
* :func:`scenario_speed` -- batched ingest throughput per scenario vs
  batch size: workload dynamics change *which* fast path a batch takes
  (churned elephants force merge replays), so throughput is
  scenario-dependent even at fixed memory.

Both respect the scoped grids: ``using_scenario_grid`` picks the
scenarios (and an optional shard count routed through
``DistributedSketch.feed_stream`` + ``ops.merge``), and
``using_jobs`` fans the accuracy cells over fork workers (speed cells
always run serial).
"""

from __future__ import annotations

from repro.core import (
    DistributedSketch,
    SalsaConservativeUpdate,
    SalsaCountMin,
)
from repro.experiments import config
from repro.experiments.runner import (
    ExperimentResult,
    ingest_seconds,
    score,
    sweep,
    throughput_mops,
)
from repro.experiments.scenarios import (
    ScenarioSpec,
    get_scenario_grid,
    get_scenario_shards,
)
from repro.sketches import ConservativeUpdateSketch, CountMinSketch
from repro.streams.model import Trace

#: Chunk size every scenario sweep feeds through ``update_many``.
CHUNK = 8192

#: Per-sweep trace cache: one scenario stream is shared by the whole
#: (sketch, memory, trial) grid.  Pre-materialized before ``sweep`` so
#: fork workers inherit the arrays instead of regenerating per cell.
_traces: dict[tuple, Trace] = {}


def _scenario_trace(spec: ScenarioSpec, length: int, trial: int) -> Trace:
    key = (spec.name, tuple(sorted(spec.params.items())), length, trial)
    if key not in _traces:
        _traces[key] = spec.build().trace(length, seed=trial)
    return _traces[key]


def scenario_error(length: int | None = None,
                   trials: int | None = None) -> list[ExperimentResult]:
    """Final-state AAE vs memory, one table per scenario in the grid.

    With ``using_scenario_grid(shards=N)`` each cell shards the stream
    chunk by chunk through :meth:`DistributedSketch.feed_stream` and
    measures the *merged* sketch -- only the mergeable SALSA family
    runs then, since the fixed-width baselines have no ``ops.merge``
    door.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    shards = get_scenario_shards()
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
    factories = {
        "SALSA CMS": wrap(lambda mem, t: SalsaCountMin.for_memory(
            mem, d=4, s=8, seed=t)),
        "SALSA CUS": wrap(lambda mem, t:
                          SalsaConservativeUpdate.for_memory(
                              mem, d=4, s=8, seed=t)),
    }
    if shards == 1:
        factories["CMS 32bit"] = single(
            lambda mem, t: CountMinSketch.for_memory(mem, d=4, seed=t))
        factories["CUS 32bit"] = single(
            lambda mem, t: ConservativeUpdateSketch.for_memory(
                mem, d=4, seed=t))

    results = []
    for spec in get_scenario_grid():
        for trial in range(trials):          # pre-warm the shared cache
            _scenario_trace(spec, length, trial)
        result = ExperimentResult(
            figure=f"scenario_error_{spec.name}",
            title=(f"Scenario '{spec.name}': {spec.summary()}"
                   + (f" [{shards} shards]" if shards > 1 else "")),
            xlabel="memory_bytes", ylabel="AAE (final state)",
        )

        def measure(sketch, mem, trial, spec=spec):
            trace = _scenario_trace(spec, length, trial)
            ingest_seconds(sketch, trace.chunks(CHUNK), seed=trial)
            return score(sketch, trace.items)[1]

        sweep(result, memories, factories, measure, trials)
        results.append(result)
    return results


def scenario_speed(length: int | None = None,
                   trials: int | None = None) -> ExperimentResult:
    """Batched ingest throughput (Mops) per scenario vs batch size.

    One series per scenario in the grid, all through the same 32KB
    SALSA CMS (on vector rows).  Wall-clock cells always run serial
    (``jobs=1``), like every other speed figure.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="scenario_speed",
        title="SALSA CMS batched ingest across scenario workloads",
        xlabel="batch_size", ylabel="Mops",
    )
    specs = get_scenario_grid()
    for spec in specs:
        for trial in range(trials):
            _scenario_trace(spec, length, trial)

    # ``measure`` needs to know which series' cell it is evaluating, so
    # each factory returns (spec, sketch) and ``measure`` unpacks.
    factories = {
        spec.name: (lambda batch, t, spec=spec: (
            spec, SalsaCountMin.for_memory(32 * 1024, d=4, s=8, seed=t)))
        for spec in specs
    }

    def measure(cell, batch, trial):
        spec, sketch = cell
        return throughput_mops(sketch, _scenario_trace(spec, length, trial),
                               int(batch))

    return sweep(result, (1024.0, 4096.0, 16384.0), factories, measure,
                 trials, jobs=1)
