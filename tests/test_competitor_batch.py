"""Competitor batch equivalence: the matrix-kernel ports vs the loop.

Mirror of ``tests/test_batch_api.py`` for the competitor family that
previously had no vectorized paths (NitroSketch, ElasticSketch,
UnivMon, ColdFilter, PyramidSketch): feeding a stream through
``update_many`` in chunks must land every sketch in a state
bit-identical to the per-item ``update`` walk -- including sampler RNG
state, heap contents, carry layers, and spill streams -- and
``query_many`` must agree with per-item ``query`` to the bit.  The
streams include duplicates, weighted updates, deletions where the
model supports them, and the exact-fallback triggers (clamp risks,
unsaturated filters).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import (
    ColdFilter,
    ConservativeUpdateSketch,
    CountMinSketch,
    CountSketch,
    ElasticSketch,
    NitroSketch,
    PyramidSketch,
    UnivMon,
)
from repro.sketches.base import BatchFrequencySketch

from answers import assert_answers

# ----------------------------------------------------------------------
# the sketch matrix
# ----------------------------------------------------------------------
FACTORIES = {
    "nitro": lambda: NitroSketch(w=256, d=5, p=0.1, seed=3),
    "nitro-p1": lambda: NitroSketch(w=256, d=5, p=1.0, seed=3),
    "nitro-even-d": lambda: NitroSketch(w=128, d=4, p=0.3, seed=3),
    "elastic": lambda: ElasticSketch(heavy_buckets=1 << 5,
                                     light_memory=2048, seed=3),
    "univmon": lambda: UnivMon(w=128, d=5, levels=8, heap_size=16, seed=3),
    "univmon-8bit": lambda: UnivMon(
        w=32, d=3, levels=4, heap_size=8, seed=3,
        cs_factory=lambda lvl: CountSketch(w=32, d=3, counter_bits=8,
                                           seed=50 + lvl)),
    "coldfilter-cus": lambda: ColdFilter(
        w1=128, stage2=ConservativeUpdateSketch(w=256, d=4, seed=5),
        d1=3, seed=3),
    "coldfilter-cms": lambda: ColdFilter(
        w1=128, stage2=CountMinSketch(w=256, d=4, seed=5), d1=3, seed=3),
    "pyramid": lambda: PyramidSketch(w1=64, d=4, delta=8, seed=3),
    "pyramid-deep": lambda: PyramidSketch(w1=16, d=3, delta=4, seed=3),
}

#: Sketches whose update accepts only positive values.
CASH_REGISTER = ("elastic", "univmon", "coldfilter-cus", "pyramid")


def _streams():
    rng = np.random.default_rng(23)
    n = 2500
    random_items = (rng.zipf(1.3, n).astype(np.int64) % 400)
    random_values = rng.integers(1, 7, n).astype(np.int64)
    # One hot key: saturates Cold Filter stage 1 and forces Elastic
    # ostracism + Pyramid carries.
    hot = np.where(rng.random(n) < 0.7, 42,
                   rng.integers(0, 150, n)).astype(np.int64)
    # Long duplicate runs: duplicate pre-aggregation territory.
    runs = np.repeat(rng.integers(0, 40, 50).astype(np.int64), 50)
    return {
        "random-unit": (random_items, None),
        "random-weighted": (random_items, random_values),
        "hot-key": (hot, None),
        "runs": (runs, None),
    }


STREAMS = _streams()


def _feed_per_item(sketch, items, values):
    if values is None:
        for x in items.tolist():
            sketch.update(x)
    else:
        for x, v in zip(items.tolist(), values.tolist()):
            sketch.update(x, v)


def _feed_batched(sketch, items, values, chunk=311):
    for start in range(0, len(items), chunk):
        vals = None if values is None else values[start:start + chunk]
        sketch.update_many(items[start:start + chunk], vals)


def _probe(items):
    return sorted(set(items.tolist()))[:300] + [10**9, 10**9 + 1]


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_update_many_matches_per_item(name, stream):
    factory = FACTORIES[name]
    items, values = STREAMS[stream]
    reference, batched = factory(), factory()
    _feed_per_item(reference, items, values)
    _feed_batched(batched, items, values)
    probe = _probe(items)
    expected = [reference.query(x) for x in probe]
    assert [batched.query(x) for x in probe] == expected
    assert_answers(batched, probe, expected)
    assert_answers(batched, np.array(probe, dtype=np.int64), expected)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_batch_protocol_and_empty_batches(name):
    sketch = FACTORIES[name]()
    assert isinstance(sketch, BatchFrequencySketch)
    sketch.update_many([])
    assert_answers(sketch, [], [])
    assert_answers(sketch, np.array([], dtype=np.int64), [])


@pytest.mark.parametrize("name", CASH_REGISTER)
def test_cash_register_batches_reject_nonpositive(name):
    with pytest.raises(ValueError):
        FACTORIES[name]().update_many([1, 2, 3], [1, 0, 1])


def test_nitro_turnstile_deletions_match():
    """NitroSketch is Turnstile: mixed-sign batches stay exact."""
    rng = np.random.default_rng(7)
    items = rng.integers(0, 80, 3000).astype(np.int64)
    values = rng.integers(-5, 6, 3000).astype(np.int64)
    values[values == 0] = 1
    for p in (0.1, 1.0):
        a, b = (NitroSketch(w=128, d=5, p=p, seed=11) for _ in range(2))
        _feed_per_item(a, items, values)
        _feed_batched(b, items, values, chunk=271)
        assert np.array_equal(a._rows, b._rows)
        probe = list(range(80))
        assert_answers(b, probe, [a.query(x) for x in probe])


def test_nitro_sampler_state_continues_exactly():
    """Mixing batched and per-item ingestion must keep the geometric
    sampler (skips, RNG, touch counter) on the per-item trajectory."""
    rng = np.random.default_rng(9)
    items = rng.integers(0, 200, 4000).astype(np.int64)
    a, b = (NitroSketch(w=256, d=5, p=0.2, seed=4) for _ in range(2))
    _feed_per_item(a, items[:2000], None)
    _feed_batched(b, items[:2000], None, chunk=500)
    assert a._skip == b._skip
    assert (a.n, a.touches) == (b.n, b.touches)
    # Continue per-item on both: the RNG streams must be in lockstep.
    _feed_per_item(a, items[2000:], None)
    _feed_per_item(b, items[2000:], None)
    assert np.array_equal(a._rows, b._rows)
    assert a._rng.random() == b._rng.random()


def test_univmon_heaps_and_gsum_match():
    """Heap replay must reproduce per-item offers exactly (contents
    *and* dict order, which breaks victim ties)."""
    rng = np.random.default_rng(13)
    items = (rng.zipf(1.2, 4000).astype(np.int64) % 600)
    a, b = (UnivMon(w=128, d=5, levels=8, heap_size=12, seed=6)
            for _ in range(2))
    _feed_per_item(a, items, None)
    _feed_batched(b, items, None, chunk=389)
    for j in range(a.levels):
        assert a.heaps[j].entries == b.heaps[j].entries
        assert list(a.heaps[j].entries) == list(b.heaps[j].entries)
    assert a.gsum(lambda f: f) == b.gsum(lambda f: f)
    assert a.volume == b.volume


def test_univmon_salsa_levels_take_per_item_walk():
    """A non-CountSketch level sketch (Fig 12's SALSA swap) has no
    on-arrival batch door; the per-level walk must stay exact."""
    from repro import SalsaCountSketch

    factory = lambda: UnivMon(
        w=64, d=3, levels=4, heap_size=8, seed=2,
        cs_factory=lambda lvl: SalsaCountSketch(w=64, d=3, s=8,
                                                seed=30 + lvl))
    rng = np.random.default_rng(15)
    items = rng.integers(0, 120, 1500).astype(np.int64)
    a, b = factory(), factory()
    _feed_per_item(a, items, None)
    _feed_batched(b, items, None, chunk=173)
    probe = sorted(set(items.tolist()))
    assert_answers(b, probe, [a.query(x) for x in probe])
    for j in range(a.levels):
        assert a.heaps[j].entries == b.heaps[j].entries


def test_cs_update_many_with_estimates_is_on_arrival_exact():
    """The on-arrival batch door returns exactly the estimates the
    interleaved update/query walk produces."""
    rng = np.random.default_rng(17)
    items = rng.integers(0, 90, 2000).astype(np.int64)
    values = rng.integers(1, 5, 2000).astype(np.int64)
    for d in (5, 4):  # odd and even medians
        a, b = (CountSketch(w=128, d=d, seed=8) for _ in range(2))
        expected = []
        for x, v in zip(items.tolist(), values.tolist()):
            a.update(x, v)
            expected.append(a.query(x))
        got = b.update_many_with_estimates(items, values)
        assert got is not None
        assert got.tolist() == expected
        assert np.array_equal(a.mat, b.mat)


def test_cs_update_many_with_estimates_declines_on_clamp_risk():
    """Near-saturation batches must return None untouched."""
    cs = CountSketch(w=16, d=3, counter_bits=8, seed=1)
    items = np.zeros(300, dtype=np.int64)
    before = cs.mat.copy()
    assert cs.update_many_with_estimates(items) is None
    assert np.array_equal(cs.mat, before)


def test_coldfilter_spill_stream_preserves_order():
    """Deferred spills must reach stage 2 in stream order."""

    class Recorder:
        def __init__(self):
            self.log = []

        def update(self, x, v):
            self.log.append((x, v))

        def update_many(self, xs, vs):
            self.log.extend(zip(xs.tolist(), vs.tolist()))

        def query(self, x):
            return 0

    rng = np.random.default_rng(19)
    items = np.where(rng.random(3000) < 0.6, 7,
                     rng.integers(0, 60, 3000)).astype(np.int64)
    values = rng.integers(1, 4, 3000).astype(np.int64)
    a = ColdFilter(w1=64, stage2=Recorder(), d1=3, seed=9)
    b = ColdFilter(w1=64, stage2=Recorder(), d1=3, seed=9)
    _feed_per_item(a, items, values)
    _feed_batched(b, items, values, chunk=257)
    assert a.stage1 == b.stage1
    assert a.stage2.log == b.stage2.log


def test_coldfilter_saturated_fast_door():
    """A batch whose stage-1 counters are all at the threshold takes
    the pure pass-through door and still matches the loop."""
    items = np.full(2000, 5, dtype=np.int64)
    a, b = (ColdFilter(w1=32,
                       stage2=ConservativeUpdateSketch(w=64, d=4, seed=2),
                       d1=3, seed=4) for _ in range(2))
    _feed_per_item(a, items, None)
    b.update_many(items[:100])           # warms stage 1 past threshold
    b.update_many(items[100:])           # all-saturated chunk
    assert a.stage1 == b.stage1
    assert a.query(5) == b.query(5)


def test_elastic_evictions_and_heavy_entries_match():
    """Ostracism decisions mid-batch must replicate the loop."""
    rng = np.random.default_rng(25)
    # Few buckets, adversarial collisions: lots of evictions.
    items = rng.integers(0, 64, 5000).astype(np.int64)
    values = rng.integers(1, 6, 5000).astype(np.int64)
    a, b = (ElasticSketch(heavy_buckets=4, light_memory=1024, seed=8)
            for _ in range(2))
    _feed_per_item(a, items, values)
    _feed_batched(b, items, values, chunk=409)
    assert a.heavy_entries() == b.heavy_entries()
    for ra, rb in zip(a.light.rows, b.light.rows, strict=True):
        assert np.array_equal(ra.values, rb.values)
    assert a.n == b.n


def test_elastic_empty_bucket_answers_the_light_part():
    """Key 0 never arrived and its heavy bucket is empty, but another
    key's light-part mass shares its light counter: the batch reads
    the light part, as ``query`` does, not the empty bucket's zeros."""
    sk = ElasticSketch(heavy_buckets=2, light_memory=8, seed=1)
    home = sk._bucket_of(0)
    resident = next(x for x in range(1, 100) if sk._bucket_of(x) is not home)
    sk.update(resident, 100)
    light_slot = sk.light.hashes.index(0, 0, sk.light.w)
    spill = next(x for x in range(1, 1000)
                 if x != resident and sk._bucket_of(x) is not home
                 and sk.light.hashes.index(x, 0, sk.light.w) == light_slot)
    sk.update(spill, 3)                 # loses the vote: goes light
    assert home.key is None and sk.query(0) == 3
    assert_answers(sk, [0, 0, resident], [3, 3, 100])


def test_pyramid_layers_flags_and_saturation_match():
    """Deep carries, shared-sibling bits, and top-layer saturation."""
    items = np.concatenate([
        np.full(4000, 3, dtype=np.int64),       # one giant flow
        np.arange(200, dtype=np.int64) % 16,    # background collisions
    ])
    a, b = (PyramidSketch(w1=8, d=2, delta=4, layers=2, seed=7)
            for _ in range(2))
    _feed_per_item(a, items, None)
    _feed_batched(b, items, None, chunk=333)
    for layer in range(a.n_layers):
        assert list(a.values[layer]) == list(b.values[layer])
        assert a.flags[layer] == b.flags[layer]
    probe = sorted(set(items.tolist()))
    assert_answers(b, probe, [a.query(x) for x in probe])


def _pyramid_state(p):
    return ([list(v) for v in p.values], [bytes(f) for f in p.flags])


PYRAMID_SHAPES = st.sampled_from([(8, 2, 4, 2), (16, 3, 4, None),
                                  (8, 1, 5, 4), (64, 2, 8, None)])


@settings(max_examples=60, deadline=None)
@given(shape=PYRAMID_SHAPES,
       stream=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 300)),
                       max_size=12))
def test_pyramid_weighted_update_equals_the_unit_loop(shape, stream):
    """``update(x, v)`` adds ``v`` units in closed form per row; it
    leaves exactly the layers and flags of ``v`` unit increments."""
    w1, d, delta, layers = shape
    fast, unit = (PyramidSketch(w1=w1, d=d, delta=delta, layers=layers,
                                seed=5) for _ in range(2))
    for x, v in stream:
        fast.update(x, v)
        for row in range(d):
            idx = unit.hashes.index(x, row, w1)
            for _ in range(v):
                unit._increment(idx)
    assert _pyramid_state(fast) == _pyramid_state(unit)


@settings(max_examples=40, deadline=None)
@given(shape=PYRAMID_SHAPES,
       stream=st.lists(st.tuples(st.integers(0, 40),
                                 st.integers(1, (1 << 61) // 16)),
                       max_size=16))
def test_pyramid_weighted_update_equals_update_many(shape, stream):
    """Huge weights within the batch bound (total inflow <= 2^61): the
    per-item door and the batch door leave the same layers, in O(layers)
    per row (the unit loop never returns on these weights)."""
    w1, d, delta, layers = shape
    a, b = (PyramidSketch(w1=w1, d=d, delta=delta, layers=layers, seed=6)
            for _ in range(2))
    for x, v in stream:
        a.update(x, v)
    b.update_many([x for x, _ in stream], [v for _, v in stream])
    assert _pyramid_state(a) == _pyramid_state(b)
    probe = sorted({x for x, _ in stream})
    assert_answers(b, probe, [a.query(x) for x in probe])


def test_pyramid_update_takes_the_int64_range_at_once():
    p = PyramidSketch(w1=64, d=1, delta=8, layers=11, seed=1)
    p.update(3, 2 ** 63 - 1)            # the unit loop never returned
    assert p.query(3) == 2 ** 63 - 1
    top = PyramidSketch(w1=64, d=4, seed=1)  # 5 layers: the top saturates
    top.update(3, 2 ** 63 - 1)
    assert top.query(3) == top.query_many([3])[0] < 2 ** 63 - 1
    assert_answers(p, [3, 3], [2 ** 63 - 1] * 2)
    with pytest.raises(ValueError):
        p.update(3, 2 ** 63)
    with pytest.raises(ValueError):
        p.update(1.5)


def test_pyramid_answer_past_int64_raises():
    """Two siblings' carries share their parents: the exact per-item
    answer passes int64, so the batch answer raises, not wraps."""
    p = PyramidSketch(w1=4, d=1, delta=8, layers=12, seed=0)
    slots = {}
    for x in range(64):
        slots.setdefault(p.hashes.index(x, 0, 4), x)
    p.update(slots[0], 2 ** 63 - 1)
    p.update(slots[1], 2 ** 63 - 1)
    assert p.query(slots[0]) > 2 ** 63 - 1
    with pytest.raises(ValueError):
        p.query_many([slots[0]])


# ----------------------------------------------------------------------
# experiment runner: --jobs
# ----------------------------------------------------------------------
def test_sweep_jobs_is_deterministic():
    """A parallel sweep must produce the exact serial tables."""
    from repro.experiments.runner import (
        ExperimentResult,
        sweep,
        using_jobs,
    )

    def build(kind):
        result = ExperimentResult(figure="t", title="t", xlabel="x",
                                  ylabel="y")
        factories = {
            "cms": lambda x, t: CountMinSketch(w=int(x), d=2, seed=t),
            "cs": lambda x, t: CountSketch(w=int(x), d=3, seed=t),
        }
        items = (np.arange(500) % 37).astype(np.int64)

        def measure(sketch, x, trial):
            sketch.update_many(items)
            return float(sketch.query(trial))

        if kind == "ctx":
            with using_jobs(2):
                return sweep(result, [32, 64], factories, measure, trials=2)
        return sweep(result, [32, 64], factories, measure, trials=2,
                     jobs=1 if kind == "serial" else 2)

    serial = build("serial")
    for kind in ("parallel", "ctx"):
        parallel = build(kind)
        assert [s.name for s in parallel.series] == \
            [s.name for s in serial.series]
        for sa, sb in zip(serial.series, parallel.series):
            assert sa.points == sb.points


def test_using_jobs_validates_and_restores():
    from repro.experiments.runner import get_jobs, using_jobs

    assert get_jobs() == 1
    with using_jobs(3):
        assert get_jobs() == 3
        with using_jobs(None):
            assert get_jobs() == 3
    assert get_jobs() == 1
    with pytest.raises(ValueError):
        using_jobs(0).__enter__()


def test_experiments_cli_accepts_jobs(monkeypatch, capsys, tmp_path):
    from repro.experiments import report
    from repro.experiments.__main__ import main

    monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SCALE", "0.02")
    monkeypatch.setenv("REPRO_TRIALS", "1")
    assert main(["--jobs", "2", "fig5b"]) == 0
    assert "fig5b" in capsys.readouterr().err
    assert (tmp_path / "fig5b.txt").exists()


# ----------------------------------------------------------------------
# machine-readable perf trajectory
# ----------------------------------------------------------------------
def test_emit_bench_json_roundtrip(tmp_path, monkeypatch):
    import importlib.util
    import json
    import os

    spec = importlib.util.spec_from_file_location(
        "bench_harness",
        os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                     "_harness.py"),
    )
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    monkeypatch.setattr(harness, "RESULTS_DIR", str(tmp_path))

    payload = {"bench": "competitors", "unit": "items_per_sec",
               "rows": [{"sketch": "pyramid", "per_item": 1.0,
                         "batched": 5.0, "speedup": 5.0}]}
    path = harness.emit_bench_json("competitors", payload)
    assert os.path.basename(path) == "BENCH_competitors.json"
    with open(path) as fh:
        assert json.load(fh) == payload
    assert harness.load_bench_json("competitors") == payload
    assert harness.load_bench_json("missing") is None
