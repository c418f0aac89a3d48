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

import numpy as np

from repro.core.distributed import DistributedSketch, shard
from repro.core.windowed import WindowedSketch
from repro.metrics import OnArrivalCollector, Summary, mean_ci
from repro.streams.model import Trace
from repro.tasks.heavy_hitters import heavy_hitter_are


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


def ingest_seconds(target, chunks, policy: str = "hash",
                   seed: int = 0) -> float:
    """Seconds to feed ``chunks`` through ``target``'s batch door:
    ``feed_stream(chunks, policy, seed)`` for a
    :class:`~repro.core.distributed.DistributedSketch`, else
    ``update_many`` per chunk (a sketch or a :class:`WindowedSketch`).
    What the clock covers: "The ingest clock" in docs/architecture.md.
    """
    chunks = list(chunks)
    start = time.perf_counter()
    if isinstance(target, DistributedSketch):
        target.feed_stream(chunks, policy=policy, seed=seed)
    else:
        for chunk in chunks:
            target.update_many(chunk)
    return time.perf_counter() - start


def per_item_seconds(target, items, policy: str = "hash",
                     seed: int = 0) -> float:
    """Seconds for the per-item reference ingest of ``items`` (a
    :class:`Trace` or any iterable of keys): ``update(x)``, or
    ``update(worker, x)`` over :func:`shard` for a
    :class:`~repro.core.distributed.DistributedSketch`.  Same clock as
    :func:`ingest_seconds`.
    """
    if not isinstance(items, Trace):
        items = Trace(np.fromiter(items, dtype=np.int64))
    update = target.update
    if isinstance(target, DistributedSketch):
        start = time.perf_counter()
        for worker, piece in enumerate(shard(items, target.workers, policy,
                                             seed)):
            for x in piece:
                update(worker, x)
    else:
        keys = items.items.tolist()
        start = time.perf_counter()
        for x in keys:
            update(x)
    return time.perf_counter() - start


def throughput_mops(sketch, trace, batch_size: int | None = None) -> float:
    """Update throughput in million updates per second (Figs 8a/b,
    10e-h, 16c/d): :func:`ingest_seconds` over chunks of ``batch_size``
    > 1 if the sketch has ``update_many``, else :func:`per_item_seconds`.
    """
    if batch_size is not None and batch_size > 1 and hasattr(sketch, "update_many"):
        seconds = ingest_seconds(sketch, trace.chunks(batch_size))
    else:
        seconds = per_item_seconds(sketch, trace)
    return len(trace) / seconds / 1e6


def score(target, items) -> tuple[int, float, float]:
    """Final-state ``(distinct flows, AAE, NRMSE)`` of a fed ``target``.

    Truth is the exact count map of the stream ``items``, or of its
    trailing ``window_span`` for a :class:`WindowedSketch`.  One
    ``query_many`` answers every flow (on ``combined()`` when sharded).
    AAE is the mean |e| over flows, NRMSE their RMSE over the updates
    scored; an empty stream scores ``(0, 0.0, 0.0)``.
    """
    items = np.asarray(items, dtype=np.int64)
    if isinstance(target, DistributedSketch):
        target = target.combined()
    elif isinstance(target, WindowedSketch):
        hi = target.window_span[1]
        items = items[len(items) - hi:] if hi else items[:0]
    flows, counts = np.unique(items, return_counts=True)
    if not len(flows):
        return 0, 0.0, 0.0
    errors = target.query_many(flows).astype(np.float64) - counts
    return (len(flows), float(np.mean(np.abs(errors))),
            float(np.sqrt(np.mean(errors * errors)) / len(items)))


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
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    previous = _JOBS
    _JOBS = previous if jobs is None else jobs
    try:
        yield
    finally:
        _JOBS = previous


def _eval_cell(cell: tuple[str, float, int]) -> float:
    """Evaluate one (algorithm, x, trial) grid cell in a worker."""
    name, x, trial = cell
    factories, measure = _SWEEP_STATE
    return measure(factories[name](x, trial), x, trial)


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
    order, so those tables are identical to a serial run.  Every
    speed figure passes ``jobs=1``: concurrent cells share cores and
    would distort a timed cell (``throughput_mops``).
    """
    xs = list(xs)
    jobs = get_jobs() if jobs is None else jobs
    cells = [(name, x, trial)
             for name in factories for x in xs for trial in range(trials)]
    if (jobs > 1 and len(cells) > 1
            and "fork" in multiprocessing.get_all_start_methods()):
        global _SWEEP_STATE
        _SWEEP_STATE = (factories, measure)
        try:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(min(jobs, len(cells))) as pool:
                samples = pool.map(_eval_cell, cells)
        finally:
            _SWEEP_STATE = None
    else:
        samples = [measure(factories[name](x, trial), x, trial)
                   for name, x, trial in cells]
    it = iter(samples)
    for name in factories:
        series = result.series_named(name)
        for x in xs:
            series.add(x, [next(it) for _ in range(trials)])
    return result


def nrmse_of(sketch, trace) -> float:
    """Convenience: on-arrival NRMSE of one run."""
    return run_on_arrival(sketch, trace).nrmse()


def hh_are_of(sketch, trace, phi: float) -> float:
    """Convenience: heavy-hitter size ARE at threshold ``phi`` after
    ingesting ``trace``."""
    return heavy_hitter_are(sketch.query, run_updates(sketch, trace), phi)
