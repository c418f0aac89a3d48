"""The runner's ingest timers and final-state scorer.

One clock boundary (``docs/architecture.md``, "The ingest clock"):
building the source into items or chunks is outside the clock, routing
to workers is inside it, combine and query are after it.  The timers
must also feed their target exactly as the batch contract says.
"""

import time

import numpy as np
import pytest

from repro.core import DistributedSketch, SalsaCountMin, WindowedSketch
from repro.experiments.runner import ingest_seconds, per_item_seconds, score
from repro.metrics import aae, nrmse
from repro.streams import zipf_trace

from answers import assert_answers

NAP = 0.04


def _sketch(fam=None):
    return SalsaCountMin(w=256, d=4, s=8, merge="sum", hash_family=fam)


TARGETS = {
    "sketch": lambda: _sketch(),
    "windowed": lambda: WindowedSketch(_sketch, epoch=300),
    "sharded": lambda: DistributedSketch(_sketch, workers=2, d=4, seed=1),
}


def _queryable(target):
    """The sketch answering for ``target``: its merge when sharded."""
    if isinstance(target, DistributedSketch):
        return target.combined()
    return target


def _slow(source, every=1):
    """Yield from ``source``, sleeping before every ``every``-th yield:
    a source that is expensive to build."""
    for i, piece in enumerate(source):
        if i % every == 0:
            time.sleep(NAP)
        yield piece


@pytest.mark.parametrize("kind", sorted(TARGETS))
def test_batch_timer_excludes_building_the_chunks(kind):
    trace = zipf_trace(2000, skew=1.1, universe=500, seed=4)
    timed = TARGETS[kind]()
    seconds = ingest_seconds(timed, _slow(trace.chunks(250)), seed=3)
    assert seconds < 8 * NAP / 2          # eight sleeps were not timed
    reference = TARGETS[kind]()
    per_item_seconds(reference, trace, seed=3)
    flows = sorted(trace.frequencies())
    assert_answers(_queryable(timed), flows,
                   _queryable(reference).query_many(flows))


@pytest.mark.parametrize("kind", sorted(TARGETS))
def test_per_item_timer_excludes_building_the_items(kind):
    trace = zipf_trace(400, skew=1.1, universe=100, seed=5)
    timed = TARGETS[kind]()
    seconds = per_item_seconds(timed, _slow(trace, every=50), seed=2)
    assert seconds < 8 * NAP / 2          # eight sleeps were not timed
    reference = TARGETS[kind]()
    ingest_seconds(reference, trace.chunks(64), seed=2)
    flows = sorted(trace.frequencies())
    assert_answers(_queryable(timed), flows,
                   _queryable(reference).query_many(flows))


def test_score_matches_the_metrics_module():
    trace = zipf_trace(3000, skew=1.0, universe=800, seed=6)
    sketch = SalsaCountMin(w=64, d=3, s=8, seed=1)
    ingest_seconds(sketch, trace.chunks(500))
    truth = trace.frequencies()
    estimates = dict(zip(truth, sketch.query_many(list(truth)).tolist()))
    errors = [estimates[x] - f for x, f in truth.items()]
    distinct, mean_abs, nrmse_ = score(sketch, trace.items)
    assert distinct == len(truth)
    assert mean_abs == pytest.approx(aae(estimates, truth), rel=1e-12)
    assert nrmse_ == pytest.approx(nrmse(errors, n=len(trace)), rel=1e-12)


def test_score_of_a_window_uses_its_trailing_span():
    trace = zipf_trace(2500, skew=1.0, universe=300, seed=7)
    win = WindowedSketch(lambda: SalsaCountMin(w=64, d=3, s=8, seed=1),
                         epoch=700)
    ingest_seconds(win, trace.chunks(256))
    hi = win.window_span[1]
    assert 0 < hi < len(trace)
    tail = trace.items[len(trace) - hi:]
    flows, counts = np.unique(tail, return_counts=True)
    errors = win.query_many(flows).astype(np.float64) - counts
    assert score(win, trace.items) == (
        len(flows), float(np.mean(np.abs(errors))),
        float(np.sqrt(np.mean(errors ** 2)) / hi))


def test_score_of_a_sharded_target_queries_the_merge():
    trace = zipf_trace(2000, skew=1.2, universe=400, seed=8)
    dist = TARGETS["sharded"]()
    ingest_seconds(dist, trace.chunks(512), seed=1)
    assert score(dist, trace.items) == score(dist.combined(), trace.items)


def test_score_of_an_empty_stream():
    assert score(_sketch(), np.empty(0, dtype=np.int64)) == (0, 0.0, 0.0)
