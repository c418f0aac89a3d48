"""Differential oracle for the native SALSA kernels (``core/_native.c``).

The kernels must be indistinguishable from the Python reference walks
they replace: on any stream, ``SalsaConservativeUpdate.update_many``
and ``ops.merge``/``ops.subtract`` leave the same counter values,
merge levels, ``merge_events`` and ``saturations`` with the kernel on,
with it off, item by item, and on the bit-packed reference rows of
``tests/reference_rows.py``.  The merge-free
batch door (``add_batch_partial``) plus the stream-order dirty replay
(``SalsaRow.add_many``) must land where the bit-packed reference's
per-item walk does and flag exactly the superblocks the merge-free
predicate names; the native replay must hand ``SalsaRow.add`` only
the updates that merge, and saturate and clamp at zero as it does;
SALSA CMS/CS ``update_many`` over the raw stream
(deletions, ``-2^63`` on CS) must equal the per-item loop with the
kernel on, off and on bit-packed rows, and AEE's must be unchanged
with the kernel off.  The native min-query of ``RowSketch.query_many``
must answer what ``batched_min_query`` answers, in values and dtype.
Streams are small rows with hot keys, base widths 2/4/8 and weights up
to ``2^63 - 1``, so overflow merges and 64-bit saturation are common,
fed in arbitrary batch splits.
"""

import contextlib
import copy
import shutil
import stat
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    DistributedSketch,
    SalsaAeeCountMin,
    SalsaConservativeUpdate,
    SalsaCountMin,
    SalsaCountSketch,
    SalsaRow,
    TangoCountMin,
    _native,
    ops,
)
from repro.hashing import HashFamily
from repro.sketches import (AeeSketch, ConservativeUpdateSketch,
                            CountMinSketch)

from answers import assert_answers
from reference_rows import build

W = 32
INT64_MAX = (1 << 63) - 1


@contextlib.contextmanager
def kernel_off():
    saved = _native._ENABLED
    _native._ENABLED = False
    try:
        yield
    finally:
        _native._ENABLED = saved


def row_state(row):
    """Everything an observer can read off a row."""
    return ([row.level_of(j) for j in range(row.w)],
            [row.read(j) for j in range(row.w)],
            row.merge_events, row.saturations)


def state(sketch):
    return [row_state(row) for row in sketch.rows]


def feed(sketch, stream, cuts):
    items = np.array([x for x, _ in stream], dtype=np.int64)
    values = np.array([v for _, v in stream], dtype=np.int64)
    for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
        sketch.update_many(items[lo:hi], values[lo:hi])
    return sketch


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
KEYS = st.one_of(st.sampled_from([7, 7, 7, 11, 11, 12]),
                 st.integers(-(1 << 63), INT64_MAX))
WEIGHTS = st.one_of(st.integers(1, 300), st.integers(1, INT64_MAX),
                    st.just(INT64_MAX))


def streams(signed=False, max_size=60):
    weights = (st.one_of(WEIGHTS, WEIGHTS.map(lambda v: -v)) if signed
               else WEIGHTS)
    return st.lists(st.tuples(KEYS, weights), max_size=max_size)


@st.composite
def split_streams(draw, signed=False):
    stream = draw(streams(signed))
    cuts = sorted(set(draw(st.lists(st.integers(0, len(stream)),
                                    max_size=4))))
    return stream, cuts


# ----------------------------------------------------------------------
# conservative update
# ----------------------------------------------------------------------
def cus_four_ways(make, stream, cuts=()):
    """Feed ``stream`` to ``make(engine)`` with the kernel on and off,
    item by item and on bit-packed rows; all four states must agree."""
    cuts = list(cuts)
    kernel = feed(make("vector"), stream, cuts)
    with kernel_off():
        off = feed(make("vector"), stream, cuts)
    per_item = make("vector")
    for x, v in stream:
        per_item.update(x, v)
    bitpacked = feed(make("bitpacked"), stream, cuts)
    assert state(kernel) == state(off) == state(per_item) == state(bitpacked)
    return kernel


@settings(max_examples=60, deadline=None)
@given(split_streams(), st.sampled_from([2, 4, 8]),
       st.integers(0, 2 ** 32))
def test_cus_kernel_matches_python_walks(split, s, seed):
    stream, cuts = split
    fam = HashFamily(3, seed)

    def make(engine):
        return build(SalsaConservativeUpdate, engine, w=W, d=3, s=s,
                     hash_family=fam)

    cus_four_ways(make, stream, cuts)


def test_cus_target_past_2_64_saturates_a_64_bit_counter():
    """``est + v`` past ``2^64 - 1`` leaves the uint64 sum for the exact
    walk, which saturates; a target of exactly ``2^64 - 1`` still fits."""
    fam = HashFamily(2, 4)
    stream = [(5, INT64_MAX), (5, INT64_MAX), (6, 1), (5, 1), (7, 1),
              (5, INT64_MAX), (8, 3)]

    def make(engine):
        return build(SalsaConservativeUpdate, engine, w=8, d=2, s=8,
                     hash_family=fam)

    top = (1 << 64) - 1
    filled = cus_four_ways(make, stream[:3], [1])   # 2^64 - 2, then + 1
    assert {v for row in state(filled) for v in row[1]} == {top}
    assert [row.saturations for row in filled.rows] == [0, 0]
    for cuts in ([], [2], [3, 5]):
        sk = cus_four_ways(make, stream, cuts)
        assert {v for row in state(sk) for v in row[1]} == {top}
        assert [row.saturations for row in sk.rows] == [4, 4]


@pytest.mark.parametrize("bits", [17, 63])
def test_fixed_width_cus_saturates_at_odd_counter_bits(bits):
    """At ``max_level = 0`` a target past ``2^bits - 1`` saturates at the
    cap, on every door, for counter widths that are not a byte multiple."""
    fam = HashFamily(3, 11)
    rng = np.random.default_rng(bits)
    top = 1 << (bits - 2)
    stream = list(zip(rng.integers(-4, 4, 80).tolist(),
                      rng.integers(1, top, 80).tolist()))

    def make(engine):
        if engine == "vector":
            return ConservativeUpdateSketch(w=16, d=3, counter_bits=bits,
                                            hash_family=fam)
        return build(SalsaConservativeUpdate, engine, w=16, d=3, s=bits,
                     max_bits=bits, hash_family=fam)

    sk = cus_four_ways(make, stream, [17, 50])
    assert max(max(row[1]) for row in state(sk)) == (1 << bits) - 1
    assert all(row.saturations > 0 and row.merge_events == 0
               for row in sk.rows)


def test_cus_stores_into_merged_level_1_and_2_blocks():
    """Targets that fit a merged counter are written across its whole
    block: every slot of a level-1/2 block reads the new value."""
    fam = HashFamily(2, 3)
    stream = [(1, 20), (2, 200), (3, 300), (1, 1), (2, 5), (3, 7),
              (1, 2), (3, 40), (2, 1), (4, 1), (1, 9)]

    def make(engine):
        return build(SalsaConservativeUpdate, engine, w=16, d=2, s=4,
                     hash_family=fam)

    for cuts in ([], [3], [1, 6, 9]):
        sk = cus_four_ways(make, stream, cuts)
        levels = {lv for row in state(sk) for lv in row[0]}
        assert {1, 2} <= levels and max(levels) == 2


# ----------------------------------------------------------------------
# the fused min-query
# ----------------------------------------------------------------------
QUERY_SKETCHES = {
    "salsa-cms-sum": lambda: SalsaCountMin(w=32, d=3, s=4, merge="sum",
                                           seed=1),
    "salsa-cms-max": lambda: SalsaCountMin(w=32, d=3, s=4, merge="max",
                                           seed=1),
    "salsa-cus": lambda: SalsaConservativeUpdate(w=32, d=3, s=4, seed=1),
    "cms": lambda: CountMinSketch(w=32, d=3, counter_bits=17, seed=1),
    "cus": lambda: ConservativeUpdateSketch(w=32, d=3, counter_bits=17,
                                            seed=1),
    "aee": lambda: AeeSketch(w=32, d=3, counter_bits=8, seed=1),
    "salsa-aee": lambda: SalsaAeeCountMin(w=32, d=3, s=4, max_bits=16,
                                          seed=1),
    "tango": lambda: TangoCountMin(w=32, d=3, s=4, seed=1),
}
#: Tango rows are not SalsaRows and keep the NumPy path.
FUSED = set(QUERY_SKETCHES) - {"tango"}


def query_inputs():
    keys = np.arange(-20, 20, dtype=np.int64)
    return {"list": keys.tolist(), "int64": keys,
            "strided": np.arange(-40, 40, dtype=np.int64)[::2],
            "negative": np.array([-1, -(1 << 63), -7, -7], dtype=np.int64),
            "empty": np.zeros(0, dtype=np.int64)}


@pytest.mark.parametrize("name", sorted(QUERY_SKETCHES))
def test_fused_query_equals_the_reference_min_query(name, monkeypatch):
    """The native min-query answers what ``batched_min_query`` answers,
    in values and in dtype, on every input form."""
    rng = np.random.default_rng(8)
    sk = QUERY_SKETCHES[name]()
    sk.update_many(rng.integers(-20, 20, 3000), rng.integers(1, 60, 3000))
    calls = []
    fused = _native.min_query
    monkeypatch.setattr(_native, "min_query",
                        lambda *a: calls.append(1) or fused(*a))
    for form, keys in query_inputs().items():
        with kernel_off():
            ref = sk.query_many(keys)
        assert not calls
        got = assert_answers(sk, keys, ref.tolist())
        assert got.dtype == ref.dtype == sk.query_dtype
        assert got.tolist() == [sk.query(x) for x in np.asarray(
            keys, dtype=np.int64).tolist()], form
        expect = name in FUSED and _native.library() is not None
        assert calls == [1] * expect, form
        calls.clear()


# ----------------------------------------------------------------------
# merge / subtract
# ----------------------------------------------------------------------
MERGE_CONFIGS = {
    "cms-sum": (SalsaCountMin, dict(merge="sum"), False),
    "cms-max": (SalsaCountMin, dict(merge="max"), False),
    "cs": (SalsaCountSketch, {}, True),
}


@pytest.mark.parametrize("name", sorted(MERGE_CONFIGS))
@pytest.mark.parametrize("op", ["merge", "subtract"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), s=st.sampled_from([2, 4, 8]))
def test_absorb_kernel_matches_python_walks(name, op, data, s):
    cls, kw, signed = MERGE_CONFIGS[name]
    fam = HashFamily(2, data.draw(st.integers(0, 2 ** 32)))
    stream_a, cuts_a = data.draw(split_streams(signed))
    stream_b, cuts_b = data.draw(split_streams(signed))

    def run(engine="vector"):
        def make(stream, cuts):
            return feed(build(cls, engine, w=W, d=2, s=s, hash_family=fam,
                              **kw), stream, cuts)

        a = make(stream_a, cuts_a)
        getattr(ops, op)(a, make(stream_b, cuts_b))
        return state(a)

    kernel = run()
    with kernel_off():
        off = run()
    assert kernel == off == run("bitpacked")


@pytest.mark.parametrize("kernel", [True, False])
@pytest.mark.parametrize("cls", [SalsaCountMin, SalsaCountSketch])
@pytest.mark.parametrize("op", [ops.merge, ops.subtract])
def test_self_merge_reads_a_snapshot(kernel, cls, op):
    """``merge(a, a)`` and ``subtract(a, a)`` equal folding in a deep
    copy of ``a``: the walk must not read ``b`` while writing ``a``."""
    rng = np.random.default_rng(5)
    a = cls(w=64, d=2, s=8, seed=3)
    a.update_many(rng.integers(0, 40, 100), rng.integers(1, 300, 100))
    twin = copy.deepcopy(a)
    before = sum(row.merge_events for row in a.rows)
    with contextlib.nullcontext() if kernel else kernel_off():
        op(a, a)
        op(twin, copy.deepcopy(twin))
    assert state(a) == state(twin)
    if op is ops.merge:   # the fold itself overflows and merges
        assert sum(row.merge_events for row in a.rows) > before


def test_merge_saturates_at_64_bits_exactly():
    """Two counters near 2^64 - 1 merge into a saturated counter; the
    kernel counts the saturation as the Python walk does."""
    fam = HashFamily(1, 9)
    results = []
    for off in (False, True):
        with kernel_off() if off else contextlib.nullcontext():
            a = SalsaCountMin(w=8, d=1, s=8, hash_family=fam)
            b = SalsaCountMin(w=8, d=1, s=8, hash_family=fam)
            for sk in (a, b):
                sk.update_many([5, 5, 5], [INT64_MAX] * 3)
            ops.merge(a, b)
            results.append(state(a))
    assert results[0] == results[1]
    assert max(results[0][0][1]) == (1 << 64) - 1
    assert results[0][0][3] > 0


# ----------------------------------------------------------------------
# merge-free batch door
# ----------------------------------------------------------------------
ROW_W = 64
ROW_CONFIGS = {
    "sum": dict(merge="sum"),
    "max": dict(merge="max"),
    "signed": dict(merge="sum", signed=True),
}
SLOTS = st.one_of(st.sampled_from([3, 3, 3, 4, 40]),
                  st.integers(0, ROW_W - 1))
DELTAS = st.one_of(st.integers(0, 3), st.integers(-3, 300),
                   st.integers(-INT64_MAX - 1, INT64_MAX),
                   st.sampled_from([1, -1, INT64_MAX]))


def row_arrays(row):
    return row.values.tobytes(), row.levels.tobytes()


def merge_free_dirty(row, idxs, vals) -> set:
    """The superblocks the batch door must flag (the deleted NumPy
    planner's predicate): those holding a counter whose ``|value|`` plus
    the batch's absolute inflow into it does not fit its width or, on
    an unsigned row, that takes a negative delta (the per-item walk
    clamps at zero, so summing would not be exact)."""
    net, inflow = {}, {}
    for j, v in zip(idxs, vals):
        start = row.locate(j)[1]
        net[start] = net.get(start, 0) + v
        inflow[start] = inflow.get(start, 0) + abs(v)
    dirty = set()
    for start, mag in inflow.items():
        width = row.s << row.level_of(start)
        cur = row.read(start)
        if row.signed:
            fits = abs(cur) + mag <= (1 << (width - 1)) - 1
        else:
            fits = net[start] == mag and cur + mag <= (1 << width) - 1
        if not fits:
            dirty.add(start >> row.max_level)
    return dirty


@settings(max_examples=150, deadline=None)
@given(config=st.sampled_from(sorted(ROW_CONFIGS)),
       s=st.sampled_from([2, 4, 8]),
       near=st.lists(st.tuples(SLOTS, st.booleans(), st.integers(0, 8)),
                     max_size=4),
       batches=st.lists(st.lists(st.tuples(SLOTS, DELTAS), max_size=24),
                        min_size=1, max_size=6))
def test_add_partial_matches_bitpacked_replay(config, s, near, batches):
    if _native.library() is None:
        pytest.skip("native kernel unavailable")
    vec, ref = (build(SalsaRow, engine, w=ROW_W, s=s, **ROW_CONFIGS[config])
                for engine in ("vector", "bitpacked"))
    # Park counters a few units below 2^64 - 1 (unsigned) or the
    # sign-magnitude bound 2^63 - 1 (signed, either sign).
    for j, negative, gap in near:
        sign = -1 if negative and vec.signed else 1
        for row in (vec, ref):
            row.add(j, sign * INT64_MAX)
            if not row.signed:
                row.add(j, INT64_MAX)
            row.add(j, -sign * gap)
    assert row_state(vec) == row_state(ref)
    for batch in batches:
        idxs = [j for j, _ in batch]
        vals = [v for _, v in batch]
        expect = merge_free_dirty(vec, idxs, vals)
        before = row_arrays(vec)
        check = vec.add_batch_partial(idxs, vals, apply=False)
        assert row_arrays(vec) == before
        dirty = vec.copy().add_batch_partial(idxs, vals)
        for mask in (check, dirty):
            assert (mask is None) == (not expect)
            if mask is not None:
                assert set(np.flatnonzero(mask).tolist()) == expect
        vec.add_many(idxs, vals)
        ref.add_many(idxs, vals)
        assert row_state(vec) == row_state(ref)


@pytest.mark.parametrize("config", sorted(ROW_CONFIGS))
@pytest.mark.parametrize("s", [2, 8])
def test_add_partial_flags_exactly_past_the_width_bound(config, s):
    """A counter that the batch fills exactly to its bound stays clean;
    one unit more makes its superblock dirty (at level 0 and at 64
    bits, on either sign of a signed row)."""
    if _native.library() is None:
        pytest.skip("native kernel unavailable")
    for sign in ((1, -1) if config == "signed" else (1,)):
        row = SalsaRow(w=ROW_W, s=s, **ROW_CONFIGS[config])
        for _ in range(1 if row.signed else 2):
            row.add(ROW_W - 1, sign * INT64_MAX)  # the last superblock
        row.add(ROW_W - 1, -sign * 5)
        row.add(0, sign)
        for j in (0, ROW_W - 1):
            width = row.s << row.level_of(j)
            bound = (1 << (width - 1 if row.signed else width)) - 1
            room = bound - abs(row.read(j))
            for extra, dirty in ((0, set()), (1, {j >> row.max_level})):
                vals = [sign * (room + extra)]
                before = row_arrays(row)
                mask = row.add_batch_partial([j], vals, apply=False)
                assert row_arrays(row) == before
                assert merge_free_dirty(row, [j], vals) == dirty
                assert (set() if mask is None
                        else set(np.flatnonzero(mask).tolist())) == dirty


def door_mask(row, idxs, vals):
    """The dirty superblocks the kernel's batch door names (apply off,
    so the row is checked to stay as it was)."""
    if _native.library() is None:
        pytest.skip("native kernel unavailable")
    before = row_arrays(row)
    mask = row.add_batch_partial(idxs, vals, apply=False)
    assert row_arrays(row) == before
    return set() if mask is None else set(np.flatnonzero(mask).tolist())


def test_add_partial_on_a_perfbench_shaped_batch():
    """A 64 KiB-sketch row (w = 8192) with merged counters takes 8192
    Zipf keys, some landing on different slots of one merged block:
    the door names exactly the predicate's superblocks, and the row
    ends where the per-item replay with the kernel off leaves it."""
    rng = np.random.default_rng(1)
    row = SalsaRow(w=8192, s=8)
    for j, v in ((8, 300), (16, 70_000), (104, 1 << 40)):
        row.add(j, v)                     # levels 1, 2 and 3
    assert [row.level_of(j) for j in (8, 16, 104)] == [1, 2, 3]
    ranks = np.minimum(rng.zipf(1.2, 8192 - 8), 8192) - 1
    idxs = np.concatenate([rng.permutation(8192)[ranks],
                           [16, 17, 18, 19, 104, 111, 8, 9]])
    vals = np.ones(len(idxs), dtype=np.int64)
    expect = merge_free_dirty(row, idxs.tolist(), vals.tolist())
    assert expect and len(expect) < 1024 // 8   # dirty and clean both
    assert door_mask(row, idxs, vals) == expect
    off = row.copy()
    row.add_many(idxs, vals)
    with kernel_off():
        off.add_many(idxs, vals)
    assert row_arrays(row) == row_arrays(off)
    assert row_state(row) == row_state(off)


@pytest.mark.parametrize("config", sorted(ROW_CONFIGS))
def test_add_partial_flags_an_inflow_past_2_64(config):
    """Three ``2^63 - 1`` deltas on one 64-bit counter: the absolute
    inflow passes ``2^64`` (no width holds it, though its sum mod
    ``2^64`` would fit), so its superblock is dirty."""
    row = SalsaRow(w=ROW_W, s=64, max_bits=64, **ROW_CONFIGS[config])
    vals = [INT64_MAX] * 3
    assert merge_free_dirty(row, [42] * 3, vals) == {42 >> row.max_level}
    assert door_mask(row, [42] * 3, vals) == {42 >> row.max_level}


def test_add_partial_fills_a_64_bit_counter_to_its_last_value():
    """Deltas summing to exactly ``2^64 - 1`` on a 64-bit counter
    holding 0 stay clean and land in one bulk add."""
    row = SalsaRow(w=ROW_W, s=64, max_bits=64)
    vals = [INT64_MAX, INT64_MAX, 1]
    assert door_mask(row, [5] * 3, vals) == set()
    assert row.add_batch_partial([5] * 3, vals) is None
    assert row.read(5) == (1 << 64) - 1


def test_add_partial_writes_nothing_for_a_net_zero_signed_counter():
    """``+x, -x`` on a signed row: clean, and the counter is not
    written (its net delta is zero)."""
    row = SalsaRow(w=ROW_W, s=8, merge="sum", signed=True)
    row.add(9, -7)
    before = row_arrays(row)
    assert door_mask(row, [9, 9], [50, -50]) == set()
    assert row.add_batch_partial([9, 9], [50, -50]) is None
    assert row_arrays(row) == before


@pytest.mark.parametrize("w, idxs", [(ROW_W, []), (1 << 16, [12_345])])
def test_add_partial_on_an_empty_or_one_key_batch(w, idxs):
    """An empty batch and one key on a 2^16-wide row are clean."""
    row = SalsaRow(w=w, s=8)
    vals = [7] * len(idxs)
    assert door_mask(row, idxs, vals) == set()
    assert row.add_batch_partial(idxs, vals) is None
    assert [row.read(j) for j in idxs] == vals


BATCH_CONFIGS = {
    "cms-max": (SalsaCountMin, dict(merge="max"), False),
    "cms-sum": (SalsaCountMin, dict(merge="sum"), True),
    "cs": (SalsaCountSketch, {}, True),
}


@pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
@settings(max_examples=40, deadline=None)
@given(split=st.data(), s=st.sampled_from([2, 4, 8]),
       seed=st.integers(0, 2 ** 32))
def test_update_many_is_the_same_with_the_kernel_off(name, split, s, seed):
    cls, kw, signed = BATCH_CONFIGS[name]
    stream, cuts = split.draw(split_streams(signed))
    fam = HashFamily(3, seed)

    def run(engine="vector"):
        return state(feed(build(cls, engine, w=W, d=3, s=s, hash_family=fam,
                                **kw), stream, cuts))

    kernel = run()
    with kernel_off():
        off = run()
    assert kernel == off == run("bitpacked")


def door_weights(name):
    """Weights up to ``2^63 - 1`` and ``2^62``; deletions where the
    sketch takes them; ``-2^63`` (no int64 negation) on CS."""
    weights = st.one_of(WEIGHTS, st.just(1 << 62))
    if BATCH_CONFIGS[name][2]:
        weights = st.one_of(weights, weights.map(lambda v: -v))
    if name == "cs":
        weights = st.one_of(weights, st.just(-(1 << 63)))
    return weights


@pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), s=st.sampled_from([2, 4, 8]),
       seed=st.integers(0, 2 ** 32))
def test_update_many_equals_the_per_item_loop(name, data, s, seed):
    """The one SALSA batch door: ``update_many`` over the raw stream,
    in any batch split, on production rows with the kernel on and off
    and on bit-packed rows, leaves what the per-item loop leaves -- values,
    levels, ``merge_events``, ``saturations`` -- and ``query_many``
    answers what per-item ``query`` does."""
    cls, kw, _ = BATCH_CONFIGS[name]
    stream = data.draw(st.lists(st.tuples(KEYS, door_weights(name)),
                                max_size=60))
    cuts = sorted(set(data.draw(st.lists(st.integers(0, len(stream)),
                                         max_size=4))))
    fam = HashFamily(3, seed)

    def make(engine="vector"):
        return build(cls, engine, w=W, d=3, s=s, hash_family=fam, **kw)

    probe = [x for x, _ in stream] + [0]
    per_item = make()
    for x, v in stream:
        per_item.update(x, v)
    expect = [per_item.query(x) for x in probe]
    kernel = feed(make(), stream, cuts)
    with kernel_off():
        off = feed(make(), stream, cuts)
    for sketch in (kernel, off, feed(make("bitpacked"), stream, cuts)):
        assert state(sketch) == state(per_item)
        assert_answers(sketch, probe, expect)


# ----------------------------------------------------------------------
# dirty replay
# ----------------------------------------------------------------------
@contextlib.contextmanager
def counting_adds():
    """Records the slot of every ``SalsaRow.add`` call while open."""
    calls = []
    add = SalsaRow.__dict__["add"]

    def counted(self, j, v):
        calls.append(j)
        return add(self, j, v)

    SalsaRow.add = counted
    try:
        yield calls
    finally:
        SalsaRow.add = add


@pytest.mark.parametrize("config", sorted(ROW_CONFIGS))
def test_replay_calls_add_only_where_a_merge_fires(config):
    """With the kernel loaded, ``add_many`` hands ``SalsaRow.add`` only
    the updates that merge: a dirty hot-key batch that merges nothing
    makes no call, and a merging one makes no more calls than merges.
    A silent fall back to the per-item replay fails here."""
    if _native.library() is None:
        pytest.skip("native kernel unavailable")
    kw = ROW_CONFIGS[config]
    row, ref = (build(SalsaRow, engine, w=ROW_W, s=8, **kw)
                for engine in ("vector", "bitpacked"))
    # +-100 on a signed row, +-1 on an unsigned one: the batch door
    # flags the superblock (inflow past the width, or a deletion that
    # may clamp), but no counter ever leaves its 8 bits.
    step = 100 if row.signed else 1
    idxs = [5] * 400 + [6] * 3
    vals = [step, -step] * 200 + [7, 7, 7]
    for r in (row, ref):
        r.add(5, 2)
    assert row.add_batch_partial(idxs, vals, apply=False) is not None
    with counting_adds() as calls:
        row.add_many(idxs, vals)
    assert calls == [] and row.merge_events == 0
    ref.add_many(idxs, vals)
    assert row_state(row) == row_state(ref)
    rng = np.random.default_rng(11)
    idxs = rng.choice([3, 4, 5, 40], 500).tolist()
    vals = rng.integers(1, 60, 500).tolist()
    with counting_adds() as calls:
        row.add_many(idxs, vals)
    assert 0 < len(calls) <= row.merge_events
    ref.add_many(idxs, vals)
    assert row_state(row) == row_state(ref)


SAT_DELTAS = st.one_of(st.integers(-6, 6), st.integers(-40, 40),
                       st.sampled_from([15, -15, INT64_MAX]))


@settings(max_examples=80, deadline=None)
@given(config=st.sampled_from(sorted(ROW_CONFIGS)),
       batches=st.lists(st.lists(st.tuples(SLOTS, SAT_DELTAS), max_size=40),
                        min_size=1, max_size=5))
def test_replay_saturates_and_clamps_like_the_reference(config, batches):
    """4-bit counters (``s=2``, one merge): the replay's in-place adds
    saturate at ``max_level`` and clamp deletions at zero exactly as
    bit-packed ``add_many`` does, with the kernel on and off."""
    def make(engine="vector"):
        return build(SalsaRow, engine, w=ROW_W, s=2, max_bits=4,
                     **ROW_CONFIGS[config])

    def run(engine="vector"):
        row = make(engine)
        for batch in batches:
            row.add_many([j for j, _ in batch], [v for _, v in batch])
        return row_state(row)

    kernel = run()
    with kernel_off():
        off = run()
    assert kernel == off == run("bitpacked")


def test_replay_oracle_reaches_saturation_and_clamping():
    """The 4-bit rows above do saturate, merge and clamp at zero."""
    rng = np.random.default_rng(2)
    row = SalsaRow(w=ROW_W, s=2, max_bits=4, merge="sum")
    idxs = rng.choice([3, 4, 40], 300)
    row.add_many(idxs, rng.integers(1, 9, 300))
    assert row.merge_events > 0 and row.saturations > 0
    row.add_many([3, 3], [-INT64_MAX, 1])
    assert row.read(3) == 1


@settings(max_examples=25, deadline=None)
@given(stream=st.lists(st.tuples(KEYS, st.integers(1, 40)), max_size=60),
       cuts=st.lists(st.integers(0, 60), max_size=4),
       max_bits=st.sampled_from([16, 64]), seed=st.integers(0, 2 ** 32))
def test_aee_update_many_is_the_same_with_the_kernel_off(stream, cuts,
                                                         max_bits, seed):
    cuts = sorted({min(c, len(stream)) for c in cuts})

    def run(engine="vector"):
        sk = feed(build(SalsaAeeCountMin, engine, w=8, d=2, s=4,
                        max_bits=max_bits, seed=seed), stream, cuts)
        return state(sk), sk.p, sk.top_level, sk.downsample_events

    kernel = run()
    with kernel_off():
        off = run()
    assert kernel == off == run("bitpacked")


# ----------------------------------------------------------------------
# build and load
# ----------------------------------------------------------------------
def test_kernel_loads_when_a_compiler_is_present():
    """CI must not silently test only the fallback."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert _native.library() is not None


def test_building_sketches_neither_compiles_nor_loads(monkeypatch):
    def fail():
        raise AssertionError("sketch construction reached the loader")

    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_load", fail)
    SalsaCountMin.for_memory(64 * 1024, seed=1)
    SalsaConservativeUpdate.for_memory(64 * 1024, seed=1)
    SalsaCountSketch(w=256, d=3)
    DistributedSketch(lambda fam: SalsaCountMin(w=256, d=4, merge="sum",
                                                hash_family=fam),
                      workers=4, d=4, seed=1)
    assert _native._lib is None


def test_no_compiler_warns_once_and_falls_back(monkeypatch):
    def no_cc():
        raise OSError("no C compiler ('cc') on PATH")

    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_build", no_cc)
    items, values = np.arange(200) % 7, np.arange(1, 201)
    sk = SalsaConservativeUpdate(w=16, d=2, s=4, seed=2)
    with pytest.warns(RuntimeWarning, match="no C compiler"):
        sk.update_many(items, values)
    cms = SalsaCountMin(w=16, d=2, s=4, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sk.update_many(items, values)
        cms.update_many(items, values)   # all-dirty batch door, no warning
    ref = SalsaConservativeUpdate(w=16, d=2, s=4, seed=2)
    ref_cms = SalsaCountMin(w=16, d=2, s=4, seed=2)
    for x, v in zip(items.tolist() * 2, values.tolist() * 2):
        ref.update(x, v)
    for x, v in zip(items.tolist(), values.tolist()):
        ref_cms.update(x, v)
    assert state(sk) == state(ref)
    assert state(cms) == state(ref_cms)


def test_build_writes_a_private_cache(monkeypatch, tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    path = _native._build()
    directory = tmp_path / "repro-salsa"
    assert stat.S_IMODE(directory.stat().st_mode) == 0o700
    assert [p.name for p in directory.iterdir()] == [path.rsplit("/", 1)[1]]
    assert _native._build() == path   # cached: keyed by the source hash


def test_wrappers_reject_malformed_arrays():
    if _native.library() is None:
        pytest.skip("native kernel unavailable")
    sk = SalsaConservativeUpdate(w=16, d=2, s=4, seed=2)
    keys = np.arange(6, dtype=np.int64)
    ones = np.ones(6, dtype=np.int64)
    # The kernels hash and mask their own slots, so none can lie
    # outside the row; what is left to reject is the arrays.
    for bad_keys, bad_vals in ((keys, ones.astype(np.int32)),
                               (keys.astype(np.int32), ones),
                               (keys[::2], ones[::2]),
                               (keys, ones[:5])):
        with pytest.raises(ValueError):
            _native.cu_walk(sk, bad_keys, bad_vals)
    for bad_keys in (keys.astype(np.int32), keys.astype(np.uint64),
                     keys[::2], keys.reshape(2, 3)):
        with pytest.raises(ValueError):
            _native.min_query(sk, bad_keys)
    with pytest.raises(ValueError):
        _native.min_query(SalsaCountSketch(w=16, d=3, s=4), keys)
    b = SalsaConservativeUpdate(w=16, d=2, s=4, seed=2)
    b.rows[0].levels[1] = 1   # a level-1 counter cannot start at 1
    with pytest.raises(ValueError):
        _native.absorb(sk.rows[0], b.rows[0], +1)
    assert state(sk) == state(SalsaConservativeUpdate(w=16, d=2, s=4,
                                                      seed=2))
    row = SalsaRow(w=16, s=4)
    idxs = np.array([1, 2, 1], dtype=np.int64)
    vals = np.full(3, 9, dtype=np.int64)
    dirty = np.ones(16 >> row.max_level, dtype=bool)
    for bad in (dict(dirty=np.ones(len(dirty) + 1, dtype=bool)),
                dict(dirty=dirty.view(np.uint8)),
                dict(idxs=np.array([1, 2, 16], dtype=np.int64)),
                dict(idxs=np.array([1, -1, 1], dtype=np.int64)),
                dict(vals=vals.astype(np.int32))):
        args = dict(idxs=idxs, vals=vals, dirty=dirty) | bad
        with pytest.raises(ValueError):
            _native.replay(row, args["idxs"], args["vals"], args["dirty"])
        assert row_state(row) == row_state(SalsaRow(w=16, s=4))
