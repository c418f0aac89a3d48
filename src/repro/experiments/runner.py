"""Experiment plumbing: on-arrival simulation, sweeps, result tables.

An experiment produces an :class:`ExperimentResult`: labelled series of
(x, mean +/- CI) points -- exactly one row group per line of the
corresponding paper figure.  The report module renders these as text
tables that the benchmark harness writes under ``results/``.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.distributed import shard
from repro.metrics import OnArrivalCollector, Summary, mean_ci


@dataclass
class Series:
    """One labelled line of a figure."""

    name: str
    points: list[tuple[float, Summary]] = field(default_factory=list)

    def add(self, x: float, samples: Sequence[float]) -> None:
        """Append a point summarizing trial samples."""
        self.points.append((x, mean_ci(list(samples))))


@dataclass
class ExperimentResult:
    """Everything needed to print one figure panel as a table."""

    figure: str
    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)

    def series_named(self, name: str) -> Series:
        """Fetch (or create) a series by name."""
        for s in self.series:
            if s.name == name:
                return s
        s = Series(name=name)
        self.series.append(s)
        return s


# ----------------------------------------------------------------------
# simulation primitives
# ----------------------------------------------------------------------
def run_on_arrival(sketch, trace) -> OnArrivalCollector:
    """On-arrival frequency estimation: query each arrival, then update.

    This is the paper's primary measurement loop ("the On-arrival model
    that asks for an estimate of the size of each arriving element").
    """
    collector = OnArrivalCollector()
    update = sketch.update
    query = sketch.query
    observe = collector.observe
    for x in trace:
        observe(x, query(x))
        update(x)
    return collector


def run_updates(sketch, trace) -> dict[int, int]:
    """Feed the whole trace; return the exact frequency vector."""
    update = sketch.update
    for x in trace:
        update(x)
    return trace.frequencies()


def run_updates_batched(sketch, trace, batch_size: int = 4096) -> dict[int, int]:
    """Feed the whole trace through ``update_many`` in chunks.

    Lands the sketch in a state bit-identical to :func:`run_updates`
    (the batch API's contract); sketches without ``update_many`` fall
    back to the per-item loop.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not hasattr(sketch, "update_many"):
        return run_updates(sketch, trace)
    update_many = sketch.update_many
    for chunk in trace.chunks(batch_size):
        update_many(chunk)
    return trace.frequencies()


def throughput_mops(sketch, trace, batch_size: int | None = None) -> float:
    """Update throughput in million updates per second (Figs 8a/b,
    10e-h, 16c/d).  Updates only, as in the paper's speed plots.

    ``batch_size`` > 1 times the batched pipeline (``update_many`` over
    pre-chunked arrays) instead of the per-item loop; chunking cost is
    excluded from the timed region, mirroring how the per-item variant
    excludes ``list(trace)``.
    """
    if batch_size is not None and batch_size > 1 and hasattr(sketch, "update_many"):
        chunks = list(trace.chunks(batch_size))
        update_many = sketch.update_many
        start = time.perf_counter()
        for chunk in chunks:
            update_many(chunk)
        elapsed = time.perf_counter() - start
        return len(trace) / elapsed / 1e6
    update = sketch.update
    items = list(trace)
    start = time.perf_counter()
    for x in items:
        update(x)
    elapsed = time.perf_counter() - start
    return len(items) / elapsed / 1e6


def feed_throughput_mops(dist, trace, batch_size: int | None = None,
                         policy: str = "hash", seed: int = 0) -> float:
    """Sharded ingest throughput in million updates per second.

    Times one full feed of ``trace``, sharding included, into a fresh
    :class:`~repro.core.distributed.DistributedSketch`: the per-item
    reference (``batch_size`` None/<=1: ``update(worker, x)`` over
    :func:`~repro.core.distributed.shard`) or ``feed_stream`` over
    chunks of ``batch_size`` items per worker.  Merging is excluded --
    this measures the ingest path, as the paper's speed plots measure
    updates only.
    """
    start = time.perf_counter()
    if batch_size is not None and batch_size > 1:
        dist.feed_stream(trace.chunks(batch_size * dist.workers),
                         policy=policy, seed=seed)
    else:
        update = dist.update
        for worker, piece in enumerate(shard(trace, dist.workers, policy,
                                             seed)):
            for x in piece:
                update(worker, x)
    elapsed = time.perf_counter() - start
    return len(trace) / elapsed / 1e6


# ----------------------------------------------------------------------
# sweep helpers
# ----------------------------------------------------------------------
#: Process-wide worker count for sweep grids (set via using_jobs / CLI
#: --jobs).  1 = serial.
_JOBS = 1

#: Closure state inherited by fork()ed sweep workers; never pickled.
_SWEEP_STATE: tuple | None = None


def get_jobs() -> int:
    """Current sweep parallelism (worker processes; 1 = serial)."""
    return _JOBS


@contextmanager
def using_jobs(jobs: int | None):
    """Run a block with ``jobs`` worker processes for sweep grids.

    ``None`` leaves the current setting untouched.  The runner only
    parallelizes where the ``fork`` start method exists (grid cells
    close over unpicklable factories; fork inherits them); elsewhere
    sweeps stay serial regardless of the setting.
    """
    global _JOBS
    if jobs is None:
        yield
        return
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    previous = _JOBS
    _JOBS = jobs
    try:
        yield
    finally:
        _JOBS = previous


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _eval_cell(cell: tuple[str, float, int]) -> float:
    """Evaluate one (algorithm, x, trial) grid cell in a worker."""
    name, x, trial = cell
    factories, measure = _SWEEP_STATE
    sketch = factories[name](x, trial)
    return measure(sketch, x, trial)


def sweep(
    result: ExperimentResult,
    xs: Iterable[float],
    factories: dict[str, Callable[[float, int], object]],
    measure: Callable[[object, float, int], float],
    trials: int,
    jobs: int | None = None,
) -> ExperimentResult:
    """Generic sweep: for each x and algorithm, average over trials.

    ``factories[name](x, trial)`` builds a fresh sketch;
    ``measure(sketch, x, trial)`` runs it and returns the metric.

    ``jobs`` (default: the :func:`using_jobs` setting) > 1 fans the
    independent (algorithm, x, trial) grid cells out over that many
    ``fork`` worker processes.  Accuracy cells are deterministic
    functions of ``(x, trial)`` and results are reassembled in grid
    order, so those tables are identical to a serial run.  Sweeps that
    *time wall-clock* inside a cell (``throughput_mops``) must pass
    ``jobs=1`` -- concurrent cells share cores and would distort the
    measurement -- and every speed figure does.
    """
    xs = list(xs)
    jobs = get_jobs() if jobs is None else jobs
    cells = [(name, x, trial)
             for name in factories for x in xs for trial in range(trials)]
    if jobs > 1 and _fork_available() and len(cells) > 1:
        global _SWEEP_STATE
        _SWEEP_STATE = (factories, measure)
        try:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(min(jobs, len(cells))) as pool:
                samples = pool.map(_eval_cell, cells)
        finally:
            _SWEEP_STATE = None
    else:
        samples = [_eval_cell_serial(factories, measure, cell)
                   for cell in cells]
    it = iter(samples)
    for name in factories:
        series = result.series_named(name)
        for x in xs:
            series.add(x, [next(it) for _ in range(trials)])
    return result


def _eval_cell_serial(factories, measure, cell) -> float:
    name, x, trial = cell
    sketch = factories[name](x, trial)
    return measure(sketch, x, trial)


def nrmse_of(sketch, trace) -> float:
    """Convenience: on-arrival NRMSE of one run."""
    return run_on_arrival(sketch, trace).nrmse()
