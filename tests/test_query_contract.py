"""The batch query contract, property-tested across every sketch.

``query_many`` answers one ndarray of the sketch's declared
``query_dtype`` -- fixed by its configuration, never by the values --
whose every element equals what per-item ``query`` answers.  Batches
are drawn heavy in duplicates (a handful of keys, repeated), the empty
batch is always asked, and lists and arrays are both passed.  SALSA
and Tango sketches run with the native kernel on and off and on
bit-packed rows.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import MERGEABLE_SKETCHES, SKETCHES
from repro.core import (
    DistributedSketch,
    SalsaAeeCountMin,
    SalsaConservativeUpdate,
    SalsaCountMin,
    SalsaCountSketch,
    TangoCountMin,
    WindowedSketch,
    _native,
)
from repro.core.row import SUM
from repro.sketches import (
    AeeSketch,
    CountSketch,
    MisraGries,
    NitroSketch,
    SpaceSaving,
)
from repro.streams import WeightedTrace

from answers import assert_answers

MEMORY = 4096
INT64 = st.integers(-(1 << 63), (1 << 63) - 1)

#: SALSA-family sketches, by row engine
SALSA = {
    "salsa-cms-max": lambda engine: SalsaCountMin(w=64, d=4, s=8, seed=1,
                                                  engine=engine),
    "salsa-cms-sum": lambda engine: SalsaCountMin(w=64, d=3, s=8,
                                                  merge=SUM, seed=1,
                                                  engine=engine),
    "salsa-cus": lambda engine: SalsaConservativeUpdate(w=64, d=4, s=8,
                                                        seed=1,
                                                        engine=engine),
    "salsa-cs-odd-d": lambda engine: SalsaCountSketch(w=64, d=5, s=8,
                                                      seed=1, engine=engine),
    "salsa-cs-even-d": lambda engine: SalsaCountSketch(w=64, d=4, s=8,
                                                       seed=1, engine=engine),
    "salsa-aee": lambda engine: SalsaAeeCountMin(w=64, d=4, s=8, seed=1,
                                                 engine=engine),
    "tango": lambda engine: TangoCountMin(w=64, d=4, s=8, seed=1,
                                          engine=engine),
}

#: AEE in both modes (the CLI's list holds no AEE)
AEE = {
    "aee-accuracy": lambda: AeeSketch(w=64, d=4, counter_bits=8, seed=1),
    "aee-speed": lambda: AeeSketch(w=64, d=4, counter_bits=8, mode="speed",
                                   speed_interval=50, seed=1),
}

#: the declared answer dtype of each configuration
DTYPES = {
    "salsa-cms-max": np.uint64, "salsa-cms-sum": np.uint64,
    "salsa-cus": np.uint64, "tango": np.uint64,
    "salsa-cs-odd-d": np.int64, "salsa-cs-even-d": np.float64,
    "salsa-aee": np.float64, "aee-accuracy": np.float64,
    "aee-speed": np.float64,
    "cms": np.int64, "cus": np.int64, "cs": np.int64, "pyramid": np.int64,
    "elastic": np.int64, "univmon": np.int64, "coldfilter": np.int64,
    "nitro": np.float64, "salsa-cms": np.uint64, "salsa-cs": np.int64,
}


@st.composite
def workloads(draw, max_weight=1 << 20):
    """``(stream, probe)``: a weighted stream and a query batch, both
    drawn from a few keys so duplicates dominate; the probe also holds
    keys the stream never saw."""
    pool = draw(st.lists(INT64, min_size=1, max_size=5, unique=True))
    keys = st.sampled_from(pool)
    stream = draw(st.lists(st.tuples(keys, st.integers(1, max_weight)),
                           max_size=60))
    probe = draw(st.lists(st.one_of(keys, keys, INT64), max_size=40))
    return stream, probe


def feed(sketch, stream):
    sketch.update_many([x for x, _ in stream], [v for _, v in stream])
    return sketch


def check_contract(sketch, probe):
    """Every door agrees with per-item ``query``, in the declared dtype."""
    expected = [sketch.query(x) for x in probe]
    assert_answers(sketch, probe, expected)
    assert_answers(sketch, np.array(probe, dtype=np.int64), expected)
    assert_answers(sketch, [], [])
    assert_answers(sketch, np.zeros(0, dtype=np.int64), [])


@contextlib.contextmanager
def engine(name):
    """Build and query under one engine: vector rows with the native
    kernel on (``kernel``) or off (``no-kernel``), or bit-packed rows."""
    saved = _native._ENABLED
    _native._ENABLED = name != "no-kernel"
    try:
        yield "bitpacked" if name == "bitpacked" else "vector"
    finally:
        _native._ENABLED = saved


@pytest.mark.parametrize("name", sorted(SKETCHES))
@settings(max_examples=25, deadline=None)
@given(work=workloads())
def test_cli_sketches_answer_like_the_per_item_query(name, work):
    stream, probe = work
    sketch = feed(SKETCHES[name](MEMORY, 1), stream)
    assert sketch.query_dtype == DTYPES[name]
    check_contract(sketch, probe)


@pytest.mark.parametrize("name", sorted(SALSA))
@pytest.mark.parametrize("kind", ["kernel", "no-kernel", "bitpacked"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_salsa_answers_like_the_per_item_query_on_every_engine(name, kind,
                                                               data):
    # AEE ingests a weight as that many unit arrivals: keep them small.
    stream, probe = data.draw(
        workloads(max_weight=8 if name == "salsa-aee" else 1 << 20))
    with engine(kind) as engine_name:
        sketch = feed(SALSA[name](engine_name), stream)
        assert sketch.query_dtype == DTYPES[name]
        check_contract(sketch, probe)


@pytest.mark.parametrize("name", sorted(AEE))
@settings(max_examples=25, deadline=None)
@given(work=workloads(max_weight=8))
def test_aee_answers_like_the_per_item_query(name, work):
    # AEE ingests a weight as that many unit arrivals: keep them small.
    stream, probe = work
    sketch = feed(AEE[name](), stream)
    assert sketch.query_dtype == DTYPES[name]
    check_contract(sketch, probe)


#: the counter-based heavy-hitter tables (k below the key pool, so
#: misses evict)
COUNTERS = {
    "spacesaving": lambda: SpaceSaving(k=3),
    "misra-gries": lambda: MisraGries(k=3),
}


@pytest.mark.parametrize("name", sorted(COUNTERS))
@settings(max_examples=25, deadline=None)
@given(work=workloads())
def test_counter_tables_answer_like_the_per_item_query(name, work):
    stream, probe = work
    sketch = feed(COUNTERS[name](), stream)
    assert sketch.query_dtype == np.int64
    check_contract(sketch, probe)


@pytest.mark.parametrize("name", sorted(COUNTERS))
def test_counter_table_count_past_int64_raises(name):
    sketch = COUNTERS[name]()
    sketch.update(7, (1 << 63) - 1)
    sketch.update(7, 1)
    assert sketch.query(7) == 1 << 63
    with pytest.raises(ValueError):
        sketch.query_many([7])
    check_contract(sketch, [8, 9, 8])


WINDOWED = {
    "salsa-cms": lambda: SalsaCountMin(w=64, d=3, s=8, seed=2),
    "count-sketch-even-d": lambda: CountSketch(w=64, d=4, seed=2),
    "nitro": lambda: NitroSketch(w=64, d=3, p=0.5, seed=2),
}


@pytest.mark.parametrize("name", sorted(WINDOWED))
@settings(max_examples=20, deadline=None)
@given(work=workloads(), epoch=st.integers(1, 25))
def test_window_answers_like_the_per_item_query(name, work, epoch):
    stream, probe = work
    win = feed(WindowedSketch(WINDOWED[name], epoch=epoch), stream)
    assert win.query_dtype == WINDOWED[name]().query_dtype
    check_contract(win, probe)


def test_window_sum_past_the_dtype_raises():
    """Current plus previous epoch past uint64: the per-item answer is
    a Python int, so the batch raises instead of wrapping."""
    win = WindowedSketch(lambda: SalsaCountMin(w=64, d=2, s=8, seed=1),
                         epoch=2)
    for _ in range(4):
        win.update(7, (1 << 63) - 1)
    assert win.query(7) == 4 * ((1 << 63) - 1)
    with pytest.raises(ValueError):
        win.query_many([7])
    check_contract(win, [8, 9, 8])        # the untouched keys still fit


def test_even_d_median_of_votes_past_int64():
    """Two middle votes near 2^63 - 1: their int64 sum wraps, the
    per-item median's Python sum does not (the batch answered -1.0)."""
    sketch = SalsaCountSketch(w=64, d=4, s=8, seed=0)
    sketch.update(7, 1 << 62)
    sketch.update(7, 1 << 62)
    assert sketch.query(7) == float((1 << 63) - 1)
    check_contract(sketch, [7, 7, 8])


@pytest.mark.parametrize("name", sorted(MERGEABLE_SKETCHES))
@settings(max_examples=20, deadline=None)
@given(work=workloads(), workers=st.integers(1, 4))
def test_combined_answers_like_the_per_item_query(name, work, workers):
    stream, probe = work
    dist = DistributedSketch(lambda fam: SKETCHES[name](MEMORY, 1),
                             workers=workers, seed=1)
    items = np.array([x for x, _ in stream], dtype=np.int64)
    values = np.array([v for _, v in stream], dtype=np.int64)
    dist.feed_stream([WeightedTrace(items, values)], seed=1)
    combined = dist.combined()
    assert combined.query_dtype == DTYPES[name]
    check_contract(combined, probe)
