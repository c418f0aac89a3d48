"""The four workloads, driven only through the program's public API.

``stationary``, ``churn`` and ``cus`` follow the paper's on-arrival
model at chunk granularity: query a chunk, then ingest it.  ``sharded``
routes chunks to sum-merge workers through ``DistributedSketch`` and
combines them every :data:`COMBINE_EVERY` chunks.  Every workload ends
with one ``query_many`` over all distinct keys.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core import DistributedSketch, SalsaConservativeUpdate, SalsaCountMin

from perfbench import host

#: Memory of the single-sketch workloads (paper's 64 KiB point).
MEMORY = 64 * 1024
D = 4
S = 8
#: sharded: workers, per-worker row width, and the combine cadence.
SHARDS = 4
SHARD_W = 4096
COMBINE_EVERY = 16
#: A segment ends, and the reference kernel runs, after the first chunk
#: that brings its program time to this many seconds.  Host speed swings
#: within tens of ms: correcting by the adjacent kernel runs alone
#: spreads runs less than smoothing the kernel times over ~50 ms.
SEGMENT_S = 0.01


def build(name: str, seed: int):
    """Every sketch the workload needs, empty."""
    if name in ("stationary", "churn"):
        return SalsaCountMin.for_memory(MEMORY, d=D, s=S, seed=seed,
                                        engine="vector")
    if name == "cus":
        return SalsaConservativeUpdate.for_memory(MEMORY, d=D, s=S,
                                                  seed=seed, engine="vector")
    if name == "sharded":
        return DistributedSketch(
            lambda family: SalsaCountMin(w=SHARD_W, d=D, s=S, merge="sum",
                                         hash_family=family,
                                         engine="vector"),
            workers=SHARDS, d=D, seed=seed)
    raise ValueError(f"unknown workload {name!r}")


def whole_stream_reference(chunks, seed: int) -> SalsaCountMin:
    """The single sum-merge sketch that the sharded workload's merged
    sketch must answer exactly like."""
    sketch = SalsaCountMin(w=SHARD_W, d=D, s=S, merge="sum", seed=seed,
                           engine="vector")
    for chunk in chunks:
        sketch.update_many(chunk)
    return sketch


@dataclass
class Pass:
    """Raw timings of one pass over the stream.

    Segment ``k`` (a group of chunks, or the final query) ran between
    reference measurements ``refs[k]`` and ``refs[k + 1]``.
    """

    seg_raw: list[float]
    seg_ingest: list[float]
    seg_steps: list[list[float]]
    refs: list[float]
    answers: np.ndarray | None
    #: the sketch that answered the final query
    target: object
    #: overflow merges and saturations in the rows that ingested
    merge_events: int
    saturations: int

    def release(self) -> None:
        """Drop the answers and sketches once checked, so memory does
        not grow with the number of passes."""
        self.answers = None
        self.target = None

    def factors(self) -> list[float]:
        return [host.factor(a, b) for a, b in zip(self.refs, self.refs[1:])]

    @property
    def raw_answer_s(self) -> float:
        return sum(self.seg_raw)

    @property
    def answer_s(self) -> float:
        return sum(host.corrected(self.seg_raw, self.refs))

    @property
    def ingest_s(self) -> float:
        return sum(host.corrected(self.seg_ingest, self.refs))

    def steps(self) -> list[float]:
        """Host-corrected per-chunk step latencies."""
        return [t * f for ts, f in zip(self.seg_steps, self.factors())
                for t in ts]


def run_pass(name: str, seed: int, chunks, keys: np.ndarray,
             ref: host.RefKernel) -> Pass:
    """Build fresh sketches and run the workload once over ``chunks``."""
    sketch = build(name, seed)
    sharded = name == "sharded"
    if sharded and len(chunks) % COMBINE_EVERY:
        raise ValueError("sharded streams must end on a combine")
    answering = sketch
    clock = time.perf_counter
    seg_raw, seg_ingest, seg_steps = [], [], []
    refs = [ref.measure()]
    i = 0
    while i < len(chunks):
        steps = []
        ingest = 0.0
        t_seg = clock()
        while True:
            chunk = chunks[i]
            if sharded:
                t0 = clock()
                sketch.feed_stream([chunk])
                t2 = clock()
                ingest += t2 - t0
                if (i + 1) % COMBINE_EVERY == 0:
                    answering = sketch.combined()
            else:
                t0 = clock()
                sketch.query_many(chunk)
                t1 = clock()
                sketch.update_many(chunk)
                t2 = clock()
                ingest += t2 - t1
            steps.append(t2 - t0)
            i += 1
            if i == len(chunks) or clock() - t_seg >= SEGMENT_S:
                break
        seg_raw.append(clock() - t_seg)
        seg_ingest.append(ingest)
        seg_steps.append(steps)
        refs.append(ref.measure())
    t_seg = clock()
    answers = answering.query_many(keys)
    seg_raw.append(clock() - t_seg)
    seg_ingest.append(0.0)
    seg_steps.append([])
    refs.append(ref.measure())
    rows = ([row for local in sketch.locals for row in local.rows]
            if sharded else sketch.rows)
    return Pass(seg_raw, seg_ingest, seg_steps, refs,
                np.asarray(answers, dtype=np.int64), answering,
                sum(row.merge_events for row in rows),
                sum(row.saturations for row in rows))
