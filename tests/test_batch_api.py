"""Batch API equivalence: ``update_many``/``query_many`` vs the loop.

The batch pipeline's contract is bit-identity: feeding a stream
through ``update_many`` in chunks (of any size, at any boundary) must
land every sketch in a state indistinguishable from the per-item
``update`` walk, and ``query_many`` must agree with per-item ``query``
to the bit.  These tests drive every sketch exposing the API down both
its fast path and its exact fallback with random, hot-key, weighted,
and turnstile streams.
"""

import re

import numpy as np
import pytest

from repro import (
    SalsaAeeCountMin,
    SalsaConservativeUpdate,
    SalsaCountMin,
    SalsaCountSketch,
    TangoCountMin,
)
from repro.core import _native
from repro.core.row import COMPACT, SUM, SalsaRow
from repro.hashing import HashFamily, mix64, mix64_many
from repro.sketches import (
    AbcSketch,
    AeeSketch,
    ColdFilter,
    ConservativeUpdateSketch,
    CountMinSketch,
    CountSketch,
    ElasticSketch,
    MisraGries,
    NitroSketch,
    PyramidSketch,
    SpaceSaving,
    UnivMon,
)
from repro.sketches.base import (
    BatchFrequencySketch,
    aggregate_batch,
    as_batch,
    as_keys,
    collapse_runs,
)

from answers import assert_answers

# ----------------------------------------------------------------------
# the sketch matrix
# ----------------------------------------------------------------------
#: name -> (factory, accepts weighted positive values)
FACTORIES = {
    "cms": (lambda: CountMinSketch(w=256, d=4, seed=3), True),
    "cms-8bit": (lambda: CountMinSketch(w=64, d=4, counter_bits=8, seed=3),
                 True),
    "cus": (lambda: ConservativeUpdateSketch(w=256, d=4, seed=3), True),
    "cus-8bit": (lambda: ConservativeUpdateSketch(w=64, d=4, counter_bits=8,
                                                  seed=3), True),
    "cs": (lambda: CountSketch(w=256, d=5, seed=3), True),
    "cs-8bit": (lambda: CountSketch(w=64, d=5, counter_bits=8, seed=3), True),
    "cs-even-d": (lambda: CountSketch(w=128, d=4, seed=3), True),
    "abc": (lambda: AbcSketch(w=256, d=4, s=8, seed=3), True),
    "aee-accuracy": (lambda: AeeSketch(w=64, d=4, counter_bits=8, seed=3),
                     True),
    "aee-speed": (lambda: AeeSketch(w=64, d=4, counter_bits=8, mode="speed",
                                    speed_interval=400, seed=3), True),
    "spacesaving": (lambda: SpaceSaving(k=40), True),
    "misra-gries": (lambda: MisraGries(k=40), True),
    "salsa-cms-max": (lambda: SalsaCountMin(w=256, d=4, s=8, seed=3), True),
    "salsa-cms-sum": (lambda: SalsaCountMin(w=256, d=4, s=8, merge=SUM,
                                            seed=3), True),
    "salsa-cms-compact": (lambda: SalsaCountMin(w=256, d=4, s=8,
                                                encoding=COMPACT, seed=3),
                          True),
    "salsa-cms-tiny": (lambda: SalsaCountMin(w=32, d=4, s=8, max_bits=16,
                                             seed=3), True),
    "salsa-cs": (lambda: SalsaCountSketch(w=256, d=5, s=8, seed=3), True),
    "salsa-cus": (lambda: SalsaConservativeUpdate(w=256, d=4, s=8, seed=3),
                  True),
    "salsa-aee": (lambda: SalsaAeeCountMin(w=64, d=4, s=8, seed=3), True),
    "tango": (lambda: TangoCountMin(w=256, d=4, s=8, seed=3), True),
}


def _streams():
    rng = np.random.default_rng(17)
    n = 3000
    random_items = (rng.zipf(1.3, n).astype(np.int64) % 700)
    random_values = rng.integers(1, 9, n).astype(np.int64)
    # One hot key: forces counter merges / saturations mid-batch, so
    # the SALSA fast path must detect them and take the exact fallback.
    hot = np.where(rng.random(n) < 0.7, 42,
                   rng.integers(0, 200, n)).astype(np.int64)
    # Long duplicate runs: exercises run-collapse fusion.
    runs = np.repeat(rng.integers(0, 50, 60).astype(np.int64), 50)
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


def _feed_batched(sketch, items, values, chunk=257):
    for start in range(0, len(items), chunk):
        vals = None if values is None else values[start:start + chunk]
        sketch.update_many(items[start:start + chunk], vals)


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_update_many_matches_per_item(name, stream):
    factory, _weighted = FACTORIES[name]
    items, values = STREAMS[stream]
    reference, batched = factory(), factory()
    _feed_per_item(reference, items, values)
    _feed_batched(batched, items, values)
    probe = sorted(set(items.tolist()))[:500] + [10**9, 10**9 + 1]
    expected = [reference.query(x) for x in probe]
    assert [batched.query(x) for x in probe] == expected
    assert_answers(batched, probe, expected)
    assert_answers(batched, np.array(probe, dtype=np.int64), expected)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_batch_protocol_and_empty_batches(name):
    factory, _ = FACTORIES[name]
    sketch = factory()
    assert isinstance(sketch, BatchFrequencySketch)
    sketch.update_many([])
    assert_answers(sketch, [], [])
    assert_answers(sketch, np.array([], dtype=np.int64), [])


@pytest.mark.parametrize("name", ["cs", "cs-8bit", "salsa-cs"])
def test_turnstile_batches_match(name):
    """Mixed-sign values route through the exact fallback unchanged."""
    factory, _ = FACTORIES[name]
    rng = np.random.default_rng(5)
    items = rng.integers(0, 64, 2000).astype(np.int64)
    values = rng.integers(-5, 6, 2000).astype(np.int64)
    reference, batched = factory(), factory()
    _feed_per_item(reference, items, values)
    _feed_batched(batched, items, values, chunk=301)
    probe = list(range(64))
    expected = [reference.query(x) for x in probe]
    assert [batched.query(x) for x in probe] == expected
    assert_answers(batched, probe, expected)


@pytest.mark.parametrize("name", ["cus", "salsa-cus", "abc", "spacesaving",
                                  "salsa-aee", "aee-accuracy"])
def test_cash_register_batches_reject_nonpositive(name):
    factory, _ = FACTORIES[name]
    with pytest.raises(ValueError):
        factory().update_many([1, 2, 3], [1, 0, 1])


def test_update_many_accepts_traces_and_lists():
    from repro.streams import zipf_trace

    trace = zipf_trace(500, skew=1.1, universe=1 << 10, seed=9)
    a, b, c = (CountMinSketch(w=128, d=4, seed=1) for _ in range(3))
    _feed_per_item(a, trace.items, None)
    b.update_many(trace)                       # a Trace directly
    c.update_many(trace.items.tolist())        # a plain list
    probe = sorted(set(trace.items.tolist()))
    expected = [a.query(x) for x in probe]
    assert_answers(b, probe, expected)
    assert_answers(c, probe, expected)


def test_as_batch_validates_lengths():
    with pytest.raises(ValueError):
        as_batch([1, 2, 3], [1, 2])


def test_as_keys_normalizes_keys_as_as_batch_does():
    """The query doors' key normaliser returns ``as_batch``'s keys and
    raises its ``ValueError``, without building unit weights."""
    from repro.streams import zipf_trace
    from repro.streams.weighted import WeightedTrace

    trace = zipf_trace(50, skew=1.1, universe=1 << 10, seed=9)
    weighted = WeightedTrace(np.array([1, -2], dtype=np.int64),
                             np.array([3, 4], dtype=np.int64))
    keys = np.arange(-5, 5, dtype=np.int64)
    for batch in (keys, keys[::2], keys.tolist(), (1, 2), [],
                  keys.astype(np.int32), trace, weighted):
        got = as_keys(batch)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert np.array_equal(got, as_batch(batch)[0])
    assert as_keys(keys) is keys
    for case, (items, values) in sorted(MALFORMED_BATCHES.items()):
        if values is None:
            with pytest.raises(ValueError) as batch_error:
                as_batch(items)
            with pytest.raises(ValueError, match=re.escape(
                    str(batch_error.value))):
                as_keys(items)


#: one sketch per batch door the input contract guards
CONTRACT_SKETCHES = ["salsa-cms-max", "salsa-cus", "salsa-cs", "cms"]

MALFORMED_BATCHES = {
    "2-D keys": (np.array([[1, 2], [3, 4]]), None),
    "2-D values": ([1, 2], np.array([[1], [2]])),
    "scalar keys": (np.int64(3), None),
    "float keys": ([1.9], None),
    "float values": ([1], [1.5]),
    "bool keys": ([True, False], None),
    "bool inside a key list": ([5, True], None),
    "bool inside a value list": ([5, 6], [1, np.True_]),
    "0-d bool array inside a key list": ([5, np.array(True)], None),
    "keys past int64 (list)": ([2 ** 63], None),
    "keys past int64 (big int)": ([2 ** 70], None),
    "keys past int64 (uint64)": (np.array([2 ** 63 + 5], dtype=np.uint64),
                                 None),
    "negative and huge keys": ([-1, 2 ** 63], None),
    "values past int64": ([1], [2 ** 63]),
}


@pytest.mark.parametrize("name", CONTRACT_SKETCHES)
@pytest.mark.parametrize("case", sorted(MALFORMED_BATCHES))
def test_malformed_batches_raise_value_error(name, case):
    """Non-1-D, non-integer or out-of-int64 batches raise ValueError
    before any counter moves (they used to be counted wrongly, or leak
    a broadcasting or OverflowError)."""
    items, values = MALFORMED_BATCHES[case]
    sketch = FACTORIES[name][0]()
    fresh = FACTORIES[name][0]()
    with pytest.raises(ValueError):
        sketch.update_many(items, values)
    if values is None:
        with pytest.raises(ValueError):
            sketch.query_many(items)
    probe = list(range(64))
    assert_answers(sketch, probe, fresh.query_many(probe))


#: per-item inputs outside the batch door's contract
MALFORMED_ITEMS = {
    "key past int64": (2 ** 70, 1),
    "key at 2^63": (2 ** 63, 1),
    "key below int64": (-(2 ** 63) - 1, 1),
    "value past int64": (3, 2 ** 63),
    "float key": (1.9, 1),
    "float value": (3, 1.5),
    "bool key": (True, 1),
}

#: every frequency sketch's per-item doors: the matrix above plus the
#: competitors whose batch equivalence test_competitor_batch.py checks
DOORS = {name: factory for name, (factory, _) in FACTORIES.items()} | {
    "pyramid": lambda: PyramidSketch(w1=64, d=4, delta=8, seed=3),
    "nitro": lambda: NitroSketch(w=256, d=5, p=0.1, seed=3),
    "elastic": lambda: ElasticSketch(heavy_buckets=1 << 5,
                                     light_memory=2048, seed=3),
    "univmon": lambda: UnivMon(w=128, d=5, levels=8, heap_size=16, seed=3),
    "coldfilter": lambda: ColdFilter(
        w1=128, stage2=CountMinSketch(w=256, d=4, seed=5), d1=3, seed=3),
}


@pytest.mark.parametrize("name", sorted(DOORS))
@pytest.mark.parametrize("case", sorted(MALFORMED_ITEMS))
def test_per_item_door_rejects_what_the_batch_door_does(name, case):
    """``update``/``query`` take the key and value range ``update_many``
    takes: outside it both doors raise ValueError and move nothing
    (``update(2**70)`` used to hash the key, ``update(1.9)`` to leak a
    TypeError)."""
    item, value = MALFORMED_ITEMS[case]
    sketch, fresh = (DOORS[name]() for _ in range(2))
    with pytest.raises(ValueError):
        sketch.update_many([item], [value])
    with pytest.raises(ValueError):
        sketch.update(item, value)
    if value == 1:
        with pytest.raises(ValueError):
            sketch.query(item)
    probe = list(range(64))
    assert_answers(sketch, probe, fresh.query_many(probe))


@pytest.mark.parametrize("name", sorted(DOORS))
def test_per_item_door_takes_the_whole_int64_range(name):
    keys = [-(2 ** 63), 2 ** 63 - 1, np.int64(7), np.uint8(9), -5]
    per_item, batched = (DOORS[name]() for _ in range(2))
    for key in keys:
        per_item.update(key, np.int32(3))
    batched.update_many(np.array([int(k) for k in keys]), [3] * len(keys))
    assert_answers(batched, [int(k) for k in keys],
                   [per_item.query(k) for k in keys])


def test_max_merge_cms_rejects_negative_values():
    """Max merge is exact only in the Cash Register model (Thm V.2):
    both doors raise on a negative value and move nothing (10 then -3
    used to read 7).  Sum merge keeps Strict Turnstile deletions."""
    fresh = SalsaCountMin(w=64, d=2, seed=1)
    fresh.update(5, 10)
    sk = SalsaCountMin(w=64, d=2, seed=1)
    sk.update(5, 10)
    with pytest.raises(ValueError):
        sk.update(5, -3)
    with pytest.raises(ValueError):
        sk.update_many([5, 6], [1, -3])
    probe = list(range(64))
    assert_answers(sk, probe, fresh.query_many(probe))
    summed = SalsaCountMin(w=64, d=2, merge=SUM, seed=1)
    summed.update(5, 10)
    summed.update(5, -3)
    summed.update_many([5], [-2])
    assert summed.query(5) == 5


@pytest.mark.parametrize("name", CONTRACT_SKETCHES)
@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
def test_integer_batches_of_any_width_are_accepted(name, dtype):
    items = np.array([1, 5, 1, 90, 127], dtype=dtype)
    values = np.array([3, 1, 2, 7, 1], dtype=dtype)
    narrow, wide = (FACTORIES[name][0]() for _ in range(2))
    narrow.update_many(items, values)
    wide.update_many(items.astype(np.int64), values.astype(np.int64))
    assert_answers(narrow, items, wide.query_many(items.tolist()))
    assert_answers(narrow, items, [wide.query(x) for x in items.tolist()])


def test_update_many_consumes_weighted_trace_values():
    from repro.streams.weighted import WeightedTrace

    wt = WeightedTrace(np.array([1, 2, 1], dtype=np.int64),
                       np.array([10, 20, 5], dtype=np.int64))
    reference, batched = (CountMinSketch(w=128, d=4, seed=1)
                          for _ in range(2))
    for x, v in wt:
        reference.update(x, v)
    batched.update_many(wt)
    assert batched.query(1) == reference.query(1) >= 15
    assert batched.query(2) == reference.query(2) >= 20
    with pytest.raises(ValueError):
        batched.update_many(wt, [1, 1, 1])


def test_huge_inflow_batches_cannot_wrap_int64():
    """Aggregated deltas whose sum nears 2^63 must take the exact
    fallback instead of silently wrapping the int64 scratch arrays."""
    n = 64
    items = np.zeros(n, dtype=np.int64)
    values = np.full(n, (1 << 62) // n * 2, dtype=np.int64)  # sums to 2^63
    cms = CountMinSketch(w=2, d=1, counter_bits=62, seed=0)
    cms.update_many(items, values)
    assert cms.query(0) == cms.cap  # saturated, never negative
    cs = CountSketch(w=2, d=1, counter_bits=62, seed=0)
    cs.update_many(items, values)
    assert abs(cs.query(0)) == cs.max_val


# ----------------------------------------------------------------------
# hashing substrate
# ----------------------------------------------------------------------
def test_mix64_many_matches_scalar():
    rng = np.random.default_rng(2)
    xs = rng.integers(-(1 << 62), 1 << 62, 200).astype(np.int64)
    out = mix64_many(xs.view(np.uint64))
    assert out.tolist() == [mix64(x & 0xFFFFFFFFFFFFFFFF)
                            for x in xs.tolist()]


def test_hash_family_batched_ops_match_scalar():
    family = HashFamily(d=4, seed=11)
    rng = np.random.default_rng(3)
    items = rng.integers(0, 1 << 62, 100).astype(np.int64)
    for row in range(4):
        raws = family.raw_many(items, row).tolist()
        idxs = family.index_many(items, row, 256).tolist()
        signs = family.sign_many(items, row).tolist()
        for x, raw, idx, sign in zip(items.tolist(), raws, idxs, signs):
            assert raw == family.raw(x, row)
            assert idx == family.index(x, row, 256)
            assert sign == family.sign(x, row)


def test_aggregate_batch_sums_duplicates():
    items = np.array([5, 3, 5, 9, 3, 5], dtype=np.int64)
    values = np.array([1, 2, 3, 4, 5, 6], dtype=np.int64)
    uniq, sums = aggregate_batch(items, values)
    assert uniq.tolist() == [3, 5, 9]
    assert sums.tolist() == [7, 10, 4]
    # No duplicates: passthrough.
    uniq2, sums2 = aggregate_batch(np.array([2, 1], dtype=np.int64),
                                   np.array([8, 9], dtype=np.int64))
    assert uniq2.tolist() == [2, 1] and sums2.tolist() == [8, 9]


def test_collapse_runs_preserves_order():
    items = np.array([7, 7, 7, 3, 3, 7, 1], dtype=np.int64)
    values = np.array([1, 2, 3, 4, 5, 6, 7], dtype=np.int64)
    ritems, rvalues = collapse_runs(items, values)
    assert ritems.tolist() == [7, 3, 7, 1]
    assert rvalues.tolist() == [6, 9, 6, 7]
    empty_i, empty_v = collapse_runs(np.array([], dtype=np.int64),
                                     np.array([], dtype=np.int64))
    assert len(empty_i) == 0 and len(empty_v) == 0


# ----------------------------------------------------------------------
# SalsaRow.add_batch_partial
# ----------------------------------------------------------------------
def test_add_batch_is_all_or_nothing():
    """Within one superblock (here the whole 8-slot row) the batch door
    applies everything or nothing.  Without the native kernel it is the
    documented all-dirty door: every superblock dirty, nothing written."""
    row = SalsaRow(w=8, s=8)
    assert row.max_level == 3
    first = row.add_batch_partial([0, 1, 2], [10, 20, 30])
    if _native.library() is None:
        assert first.tolist() == [True]
        assert [row.read(j) for j in (0, 1, 2)] == [0, 0, 0]
        row.add_many([0, 1, 2], [10, 20, 30])
    else:
        assert first is None
    assert [row.read(j) for j in (0, 1, 2)] == [10, 20, 30]
    # 0 could absorb 200 but 2 would overflow: nothing may change.
    dirty = row.add_batch_partial([0, 2], [200, 250])
    assert dirty is not None and dirty.tolist() == [True]
    assert [row.read(j) for j in (0, 1, 2)] == [10, 20, 30]
    assert row.merge_events == 0


def test_add_batch_rejects_negative_on_unsigned_rows():
    row = SalsaRow(w=8, s=8)
    row.add(3, 100)
    dirty = row.add_batch_partial([3], [-5])
    assert dirty is not None and dirty.tolist() == [True]
    assert row.read(3) == 100


# ----------------------------------------------------------------------
# streams and runner plumbing
# ----------------------------------------------------------------------
def test_trace_chunks_cover_the_stream():
    from repro.streams import zipf_trace

    trace = zipf_trace(1000, skew=1.0, universe=1 << 12, seed=4)
    chunks = list(trace.chunks(64))
    assert [len(c) for c in chunks] == [64] * 15 + [40]
    assert np.concatenate(chunks).tolist() == trace.items.tolist()
    with pytest.raises(ValueError):
        next(trace.chunks(0))


def test_read_flow_chunks_matches_whole_file(tmp_path):
    from repro.streams import (load_flows_as_trace, read_flow_chunks,
                               write_flows, zipf_trace)

    trace = zipf_trace(333, skew=1.0, universe=1 << 10, seed=8)
    path = write_flows(trace, str(tmp_path / "t.flows"))
    whole = load_flows_as_trace(path).items.tolist()
    chunked = np.concatenate(list(read_flow_chunks(path, 100))).tolist()
    assert chunked == whole
    with pytest.raises(ValueError):
        next(read_flow_chunks(path, 0))


def test_dataset_chunks_equal_dataset():
    from repro.streams import dataset, dataset_chunks

    whole = dataset("univ2", 2000, seed=1).items.tolist()
    chunked = np.concatenate(list(dataset_chunks("univ2", 2000, 256,
                                                 seed=1))).tolist()
    assert chunked == whole


def test_throughput_mops_batched_path_runs():
    from repro.experiments import throughput_mops
    from repro.streams import zipf_trace

    trace = zipf_trace(2000, skew=1.0, universe=1 << 10, seed=6)
    assert throughput_mops(CountMinSketch(w=128, d=4, seed=1), trace,
                           batch_size=256) > 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_run_batch_size(tmp_path, capsys):
    from repro.cli import main

    path = str(tmp_path / "z.npz")
    assert main(["generate", "zipf", path, "--length", "3000"]) == 0
    assert main(["run", path, "--sketch", "salsa-cms", "--memory", "8K",
                 "--batch-size", "512"]) == 0
    out = capsys.readouterr().out
    assert "batch:" in out and "NRMSE" in out


def test_cli_speed(tmp_path, capsys):
    from repro.cli import main

    path = str(tmp_path / "z.npz")
    assert main(["generate", "zipf", path, "--length", "3000"]) == 0
    assert main(["speed", path, "--sketch", "cms", "--memory", "8K",
                 "--batch-size", "512"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out


# ----------------------------------------------------------------------
# executable-docs tooling
# ----------------------------------------------------------------------
def test_check_docs_runs_passing_and_catches_failing(tmp_path):
    import importlib.util
    import os

    spec = importlib.util.spec_from_file_location(
        "check_docs",
        os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                     "check_docs.py"),
    )
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)

    good = tmp_path / "good.md"
    good.write_text("```python\nx = 1\n```\n```python\nassert x == 1\n```\n")
    assert check_docs.main([str(tmp_path)]) == 0

    bad = tmp_path / "zz-bad.md"
    bad.write_text("```python\nassert False\n```\n")
    with pytest.raises(SystemExit):
        check_docs.main([str(tmp_path)])
    assert check_docs.main([]) == 0  # the real docs/ tree stays green
