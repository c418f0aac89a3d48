"""Tests of the benchmark itself: inputs, answer checks, host correction
and tracing.  They run on streams far smaller than a benchmark run."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SalsaRow

from perfbench import checks, gen, host, memory, workloads
from perfbench.tracing import Tracer

SMALL = dict(chunks=16, chunk=1024)


@pytest.mark.parametrize("stream", [gen.stationary, gen.churn])
def test_generator_is_deterministic_per_seed(stream):
    a, b, c = stream(3, **SMALL), stream(3, **SMALL), stream(4, **SMALL)
    assert len(a) == SMALL["chunks"]
    assert all(len(x) == SMALL["chunk"] and x.dtype == np.int64 for x in a)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_churn_replaces_its_heavy_keys_every_epoch():
    keys = np.concatenate(gen.churn(5, chunks=8, chunk=4096))
    epochs = keys.reshape(-1, gen.CHURN_EPOCH)
    tops = []
    for epoch in epochs:
        uniq, counts = np.unique(epoch, return_counts=True)
        top = set(uniq[np.argsort(counts)[-gen.CHURN_HEAVY:]].tolist())
        share = np.isin(epoch, list(top)).mean()
        assert 0.45 < share < 0.6
        tops.append(top)
    assert not tops[0] & tops[1]


def _pass(name):
    chunks = gen.STREAMS[name](2, **SMALL)
    keys, counts = gen.exact_counts(chunks)
    p = workloads.run_pass(name, 2, chunks, keys, host.RefKernel())
    expected = None
    if name == "sharded":
        ref = workloads.whole_stream_reference(chunks, 2)
        expected = np.asarray(ref.query_many(keys), dtype=np.int64)
    return p, keys, counts, expected


@pytest.mark.parametrize("name", tuple(gen.STREAMS))
def test_answer_checks_pass_on_program_answers_and_catch_corruption(name):
    p, keys, counts, expected = _pass(name)
    assert checks.check_answers(p.answers, keys, counts, p.target,
                                expected) == 0
    low = p.answers.copy()
    low[0] = counts[0] - 1  # below the true count
    assert checks.check_answers(low, keys, counts, p.target, expected) == 1
    high = p.answers.copy()
    high[-1] += int(counts.sum())  # above any coarse-CMS bound
    assert checks.check_answers(high, keys, counts, p.target, expected) == 1


def test_coarse_bound_at_level_zero_is_the_plain_cms():
    chunks = gen.stationary(1, chunks=2, chunk=512)
    keys, counts = gen.exact_counts(chunks)
    sketch = workloads.build("stationary", 1)
    bound = checks.coarse_cms_bound(keys, counts, sketch.hashes.seeds,
                                    sketch.w, 0)
    cms = None
    for row in range(sketch.d):
        idx = sketch.hashes.index_many(keys, row, sketch.w)
        est = np.bincount(idx, weights=counts, minlength=sketch.w)[idx]
        cms = est if cms is None else np.minimum(cms, est)
    assert np.array_equal(bound, cms.astype(np.int64))


def test_host_correction_is_invariant_to_a_uniform_slowdown():
    rng = np.random.default_rng(0)
    n = 5
    base = workloads.Pass(
        seg_raw=rng.random(n).tolist(), seg_ingest=rng.random(n).tolist(),
        seg_steps=[rng.random(3).tolist() for _ in range(n)],
        refs=(rng.random(n + 1) * 1e-3).tolist(), answers=None, target=None,
        merge_events=0, saturations=0)
    k = 1.7
    slow = workloads.Pass(
        seg_raw=[t * k for t in base.seg_raw],
        seg_ingest=[t * k for t in base.seg_ingest],
        seg_steps=[[t * k for t in ts] for ts in base.seg_steps],
        refs=[t * k for t in base.refs], answers=None, target=None,
        merge_events=0, saturations=0)
    assert slow.answer_s == pytest.approx(base.answer_s, rel=1e-12)
    assert slow.ingest_s == pytest.approx(base.ingest_s, rel=1e-12)
    assert slow.steps() == pytest.approx(base.steps(), rel=1e-12)
    assert slow.raw_answer_s == pytest.approx(k * base.raw_answer_s)


def test_corrected_needs_a_reference_on_both_sides_of_each_segment():
    with pytest.raises(ValueError):
        host.corrected([1.0, 2.0], [1.0, 1.0])


def test_peak_memory_counts_only_what_was_added_since_the_reset():
    held = np.ones(1 << 22)  # 32 MiB, resident before the reset
    base = memory.reset_peak_rss()
    assert memory.peak_rss_added_kb(base) < 4 * 1024
    grown = np.ones(1 << 22)
    assert memory.peak_rss_added_kb(base) >= 30 * 1024
    del held, grown


def test_tracer_counts_layers_and_restores_the_program():
    add = SalsaRow.__dict__["add"]
    chunks = gen.churn(1, **SMALL)
    keys, _ = gen.exact_counts(chunks)
    with Tracer(counting=True) as counter:
        p = workloads.run_pass("churn", 1, chunks, keys, host.RefKernel())
    assert SalsaRow.__dict__["add"] is add
    m = {key: value for key, (value, _unit)
         in counter.count_metrics().items()}
    assert m["core.row.replay_adds"] > 0
    assert 0 < m["core.row.bulk_share"] < 1
    assert m["core.row.dirty_superblocks"] > 0
    assert m["core.ops.walk_adds"] == 0
    assert p.merge_events > 0
    names = {span["name"] for span in counter.dump()}
    assert "core.distributed.combined" not in names


def test_timed_tracer_does_not_wrap_the_per_item_add():
    add = SalsaRow.__dict__["add"]
    chunks = gen.churn(1, **SMALL)
    keys, _ = gen.exact_counts(chunks)
    with Tracer() as tracer:
        assert SalsaRow.__dict__["add"] is add
        workloads.run_pass("churn", 1, chunks, keys, host.RefKernel())
    t = {key: value for key, (value, _unit) in tracer.time_metrics().items()}
    assert t["core.row.add_batch_partial_s"] > 0
    assert t["core.row.replay_s"] > 0
    assert t["core.ops.merge_s"] == 0
    with pytest.raises(ValueError):
        tracer.count_metrics()
