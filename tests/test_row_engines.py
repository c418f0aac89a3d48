"""Representation independence: production rows vs the bit-packed oracle.

The contract is observational equality: on any stream, a production
row (values and levels in arrays) and the paper's bit-packed encoding
(``tests/reference_rows.py``) must report identical counter values,
merge levels, estimates, ``memory_bits``, and serialized bytes -- the
storage changes speed, never the sketch.  These tests drive both in
lockstep through random, hot-key, turnstile (sum-merge), and signed
Count-Sketch streams, through the stateful operations
(``scale_down_half``, ``try_split``, ``copy``), and through serialize
round-trips (a blob of either loads into production rows and folds
back into either), at row level and at sketch level.  Parameters named
``engine`` pick ``"bitpacked"`` (the oracle) or ``"vector"``
(production).
"""

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import (
    SalsaAeeCountMin,
    SalsaConservativeUpdate,
    SalsaCountMin,
    SalsaCountSketch,
    SalsaRow,
    TangoCountMin,
    TangoRow,
)
from repro.core import _native, ops
from repro.core.row import SUM
from repro.core.serialize import dumps, loads

from answers import assert_answers
from reference_rows import (
    BitPackedRow,
    TangoBitPackedRow,
    bitpacked,
    blob,
    wire,
)

#: engine name -> row class
ROWS = {"bitpacked": BitPackedRow, "vector": SalsaRow}


def row_state(row):
    """Observable state: (levels per slot, live counters, memory)."""
    return (
        [row.level_of(j) for j in range(row.w)],
        list(row.counters()),
        row.memory_bits,
        [row.read(j) for j in range(row.w)],
    )


def make_pair(**kwargs):
    return BitPackedRow(**kwargs), SalsaRow(**kwargs)



# ----------------------------------------------------------------------
# row-level lockstep
# ----------------------------------------------------------------------
STREAMS = {
    "random": lambda rng, n: (rng.integers(0, 32, n),
                              rng.integers(1, 9, n)),
    "hot-key": lambda rng, n: (
        np.where(rng.random(n) < 0.7, 5, rng.integers(0, 32, n)),
        np.ones(n, dtype=np.int64)),
    "turnstile": lambda rng, n: (rng.integers(0, 32, n),
                                 rng.integers(-6, 7, n)),
}


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("merge,signed", [("max", False), ("sum", False),
                                          ("sum", True)])
def test_row_add_lockstep(stream, merge, signed):
    rng = np.random.default_rng(7)
    items, values = STREAMS[stream](rng, 3000)
    if not signed and stream == "turnstile":
        values = np.abs(values) + 1  # unsigned rows get Cash Register
    a, b = make_pair(w=32, s=4, merge=merge, signed=signed)
    for j, v in zip(items.tolist(), values.tolist()):
        assert a.add(int(j), int(v)) == b.add(int(j), int(v))
    assert row_state(a) == row_state(b)
    assert (a.merge_events, a.saturations) == (b.merge_events, b.saturations)


def test_row_add_batch_lockstep():
    """Batches through add_many, the batch door every SALSA sketch
    uses: the production bulk path and the bit-packed reference (which
    replays everything) stay in lockstep."""
    rng = np.random.default_rng(3)
    a, b = make_pair(w=32, s=4)
    for _ in range(50):
        idxs = rng.integers(0, 32, 40).tolist()
        vals = rng.integers(1, 5, 40).tolist()
        for row in (a, b):
            row.add_many(idxs, vals)
        assert row_state(a) == row_state(b)


def test_add_batch_partial_applies_clean_superblocks_only():
    kernel = _native.library() is not None
    row = SalsaRow(w=16, s=8)
    row.add(0, 250)     # superblock 0 close to overflow
    # slots 0 and 8 live in different superblocks (max_level=3).
    dirty = row.add_batch_partial([0, 8], [100, 7])
    # Without the kernel the door is the documented all-dirty one:
    # every superblock dirty, nothing written.
    assert dirty is not None and dirty.tolist() == [True, not kernel]
    assert row.read(0) == 250   # dirty superblock untouched
    assert row.read(8) == (7 if kernel else 0)  # clean superblock applied
    # check-only mode must not write.
    before = row_state(row)
    mask = row.add_batch_partial([0], [100], apply=False)
    assert mask is not None and row_state(row) == before
    # The bit-packed reference has no bulk path: everything is dirty,
    # nothing is written.
    ref = BitPackedRow(w=16, s=8)
    before = row_state(ref)
    dirty = ref.add_batch_partial([0, 8], [100, 7])
    assert dirty.tolist() == [True, True] and row_state(ref) == before


def test_add_batch_rejects_negative_on_unsigned_vector_rows():
    """A negative delta clamps at zero per item, so summation is not
    equivalent: its superblock is dirty and left untouched."""
    kernel = _native.library() is not None
    row = SalsaRow(w=16, s=8)
    row.add(3, 100)
    dirty = row.add_batch_partial([3, 8], [-5, 4])
    # Without the kernel: every superblock dirty, nothing written.
    assert dirty is not None and dirty.tolist() == [True, not kernel]
    assert row.read(3) == 100
    assert row.read(8) == (4 if kernel else 0)


#: batches outside the row batch door's contract
MALFORMED_ROW_BATCHES = {
    "negative slot": ([-1], [5]),
    "slot at w": ([16], [5]),
    "length mismatch": ([1, 2], [5]),
    "2-D slots": ([[1, 2]], [5, 5]),
    "float slots": ([1.5], [5]),
    "deltas past int64": ([1], [2 ** 63]),
}


@pytest.mark.parametrize("kernel", [True, False])
@pytest.mark.parametrize("engine", sorted(ROWS))
@pytest.mark.parametrize("case", sorted(MALFORMED_ROW_BATCHES))
def test_add_batch_partial_rejects_malformed_batches(case, engine, kernel,
                                                      monkeypatch):
    """On both rows, with the kernel on or off, the door takes 1-D
    integer slots in [0, w) and deltas of equal length, else raises
    ValueError and writes nothing (slot -1 used to add to slot 15)."""
    monkeypatch.setattr(_native, "_ENABLED", kernel)
    idxs, vals = MALFORMED_ROW_BATCHES[case]
    row = ROWS[engine](w=16, s=8)
    row.add(15, 3)
    before = row_state(row)
    for apply in (True, False):
        with pytest.raises(ValueError):
            row.add_batch_partial(idxs, vals, apply=apply)
    assert row_state(row) == before


def test_scale_down_and_split_lockstep():
    import random

    a, b = make_pair(w=16, s=4, merge="max")
    for j in range(16):
        a.add(j, 14 + j)
        b.add(j, 14 + j)
    a.add(3, 300)
    b.add(3, 300)
    a.scale_down_half(random.Random(5))
    b.scale_down_half(random.Random(5))
    assert row_state(a) == row_state(b)
    for start, level, _v in list(a.counters()):
        assert a.try_split(start, level) == b.try_split(start, level)
    assert row_state(a) == row_state(b)


def test_copy_is_independent_per_engine():
    for cls in ROWS.values():
        row = cls(w=8, s=8)
        row.add(1, 200)
        clone = row.copy()
        assert type(clone) is cls
        clone.add(1, 100)   # forces a merge in the clone only
        assert row.read(1) == 200
        assert row.level_of(1) == 0
        assert clone.level_of(1) == 1


@pytest.mark.parametrize("encoding", ["simple", "compact"])
def test_memory_bits_match_the_reference_encoding(encoding):
    """A row charges, bit for bit, what the paper's encoding of it
    holds -- whole-byte sketch sizes would hide a one-bit slip."""
    for w in (2, 8, 32, 64, 1024):
        for s in (2, 4, 8, 16, 32, 64):
            for max_bits in (s, 64):
                kw = dict(w=w, s=s, max_bits=max_bits, encoding=encoding)
                assert SalsaRow(**kw).memory_bits == \
                    BitPackedRow(**kw).memory_bits, kw


def test_read_many_matches_point_reads():
    rng = np.random.default_rng(9)
    for cls in ROWS.values():
        row = cls(w=32, s=4)
        for j, v in zip(rng.integers(0, 32, 500).tolist(),
                        rng.integers(1, 6, 500).tolist()):
            row.add(j, v)
        idxs = rng.integers(0, 32, 64)
        assert row.read_many(idxs).tolist() == [row.read(int(j))
                                                for j in idxs.tolist()]


# ----------------------------------------------------------------------
# hypothesis: engines in lockstep under random interleavings
# ----------------------------------------------------------------------
class EngineLockstepMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.a = BitPackedRow(w=16, s=2, merge="sum")
        self.b = SalsaRow(w=16, s=2, merge="sum")

    @rule(j=st.integers(min_value=0, max_value=15),
          v=st.integers(min_value=0, max_value=40))
    def add(self, j, v):
        assert self.a.add(j, v) == self.b.add(j, v)

    @rule(data=st.lists(st.tuples(st.integers(min_value=0, max_value=15),
                                  st.integers(min_value=1, max_value=9)),
                        max_size=12))
    def add_batch_partial(self, data):
        """The production bulk path plus its dirty replay lands where the
        reference's all-dirty replay does (checked by the invariant)."""
        idxs = [j for j, _ in data]
        vals = [v for _, v in data]
        for row in (self.a, self.b):
            dirty = row.add_batch_partial(idxs, vals)
            if dirty is not None:
                for j, v in zip(idxs, vals):
                    if dirty[j >> row.max_level]:
                        row.add(j, v)

    @invariant()
    def observationally_equal(self):
        assert row_state(self.a) == row_state(self.b)


TestEngineLockstepMachine = EngineLockstepMachine.TestCase
TestEngineLockstepMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)


# ----------------------------------------------------------------------
# sketch-level equivalence (batched and per-item, every variant)
# ----------------------------------------------------------------------
SKETCHES = {
    "cms-max": lambda: SalsaCountMin(w=64, d=4, s=8, seed=3),
    "cms-sum": lambda: SalsaCountMin(w=64, d=4, s=8, merge=SUM, seed=3),
    "cms-compact": lambda: SalsaCountMin(w=64, d=4, s=8,
                                         encoding="compact", seed=3),
    "cs": lambda: SalsaCountSketch(w=64, d=5, s=8, seed=3),
    "cus": lambda: SalsaConservativeUpdate(w=64, d=4, s=8, seed=3),
    "aee": lambda: SalsaAeeCountMin(w=64, d=4, s=8, seed=3),
}


def make(name, engine):
    sketch = SKETCHES[name]()
    return bitpacked(sketch) if engine == "bitpacked" else sketch


def _sketch_streams():
    rng = np.random.default_rng(17)
    n = 4000
    return {
        "random": (rng.integers(0, 500, n), rng.integers(1, 8, n)),
        "hot-key": (np.where(rng.random(n) < 0.6, 42,
                             rng.integers(0, 200, n)),
                    np.ones(n, dtype=np.int64)),
        "turnstile": (rng.integers(0, 200, n), rng.integers(-4, 5, n)),
    }


SKETCH_STREAMS = _sketch_streams()


@pytest.mark.parametrize("stream", sorted(SKETCH_STREAMS))
@pytest.mark.parametrize("name", sorted(SKETCHES))
def test_sketch_engines_agree(name, stream):
    items, values = SKETCH_STREAMS[stream]
    items = items.astype(np.int64)
    values = values.astype(np.int64)
    if name != "cs":
        values = np.abs(values) + 1     # Cash Register / Strict Turnstile
    a = make(name, "bitpacked")
    b = make(name, "vector")
    assert type(a.rows[0]) is BitPackedRow and type(b.rows[0]) is SalsaRow
    for start in range(0, len(items), 389):
        chunk_i = items[start:start + 389]
        chunk_v = values[start:start + 389]
        a.update_many(chunk_i, chunk_v)
        b.update_many(chunk_i, chunk_v)
    probe = sorted(set(items.tolist()))[:400] + [10**9]
    assert_answers(a, probe, b.query_many(probe))
    assert a.memory_bytes == b.memory_bytes
    for ra, rb in zip(a.rows, b.rows):
        assert [ra.level_of(j) for j in range(ra.w)] == \
               [rb.level_of(j) for j in range(rb.w)]


def test_aee_downsampling_stays_in_lockstep():
    """Tiny AEE rows force overflow policy decisions (downsampling and
    splitting); identical RNG seeds must keep the engines identical."""
    rng = np.random.default_rng(23)
    items = rng.integers(0, 40, 6000).astype(np.int64)
    a = bitpacked(SalsaAeeCountMin(w=8, d=2, s=8, max_bits=16, seed=3,
                                   split=True))
    b = SalsaAeeCountMin(w=8, d=2, s=8, max_bits=16, seed=3, split=True)
    for start in range(0, len(items), 500):
        a.update_many(items[start:start + 500])
        b.update_many(items[start:start + 500])
    assert a.p == b.p and a.top_level == b.top_level
    probe = list(range(40))
    assert_answers(a, probe, b.query_many(probe))


# ----------------------------------------------------------------------
# serialization: one wire format, either storage
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["cms-max", "cms-compact", "cs", "cus"])
def test_serialized_bytes_are_engine_independent(name):
    items, values = SKETCH_STREAMS["random"]
    values = np.abs(values.astype(np.int64)) + 1
    a = make(name, "bitpacked")
    b = make(name, "vector")
    a.update_many(items, values)
    b.update_many(items, values)
    assert dumps(b) == blob(a)


def _cms(engine):
    sketch = SalsaCountMin(w=64, d=3, s=8, seed=5)
    return bitpacked(sketch) if engine == "bitpacked" else sketch


@pytest.mark.parametrize("src", sorted(ROWS))
@pytest.mark.parametrize("dst", sorted(ROWS))
def test_serialize_roundtrip_across_engines(src, dst):
    """A blob of either storage loads into production rows, and the
    loaded state folds into an empty sketch of either unchanged."""
    items, values = SKETCH_STREAMS["hot-key"]
    sk = _cms(src)
    sk.update_many(items, values)
    clone = loads(wire(sk))
    assert type(clone.rows[0]) is SalsaRow
    target = _cms(dst)
    ops.merge(target, clone)
    probe = sorted(set(items.tolist()))
    for other in (clone, target):
        assert_answers(other, probe, sk.query_many(probe))
        assert other.memory_bytes == sk.memory_bytes
        assert wire(other) == wire(sk)


def test_scale_down_then_serialize_roundtrip():
    sk = SalsaCountMin(w=32, d=2, s=8, seed=1)
    for _ in range(600):
        sk.update(9)
    for row in sk.rows:
        row.scale_down_half()
    clone = loads(dumps(sk))
    assert clone.query(9) == sk.query(9)
    assert dumps(clone) == dumps(sk)


# ----------------------------------------------------------------------
# Tango rows
# ----------------------------------------------------------------------
def test_tango_engines_agree():
    rng = np.random.default_rng(5)
    a = TangoBitPackedRow(w=32, s=8)
    b = TangoRow(w=32, s=8)
    for j, v in zip(rng.integers(0, 32, 4000).tolist(),
                    rng.integers(1, 200, 4000).tolist()):
        assert a.add(j, v) == b.add(j, v)
    assert [a.span_of(j) for j in range(32)] == \
           [b.span_of(j) for j in range(32)]
    assert [a.read(j) for j in range(32)] == [b.read(j) for j in range(32)]
    assert a.memory_bits == b.memory_bits
    assert list(a.counters()) == list(b.counters())


def test_tango_sketch_engines_agree():
    rng = np.random.default_rng(6)
    items = rng.integers(0, 300, 5000).astype(np.int64)
    a = bitpacked(TangoCountMin(w=128, d=3, s=8, seed=2))
    b = TangoCountMin(w=128, d=3, s=8, seed=2)
    a.update_many(items)
    b.update_many(items)
    probe = sorted(set(items.tolist()))
    assert_answers(a, probe, b.query_many(probe))


def test_tango_vector_engine_rejects_over_64_bit_counters():
    with pytest.raises(ValueError, match="64-bit"):
        TangoRow(w=32, s=8, max_slots=16)


def test_salsa_vector_engine_rejects_over_64_bit_counters():
    """Rows hold counters in 64-bit words, so a row that could merge
    past 64 bits is refused up front, the reference row included."""
    for make_row in (SalsaRow, BitPackedRow):
        with pytest.raises(ValueError, match="64-bit"):
            make_row(w=64, s=8, max_bits=128, merge="sum")
    with pytest.raises(ValueError, match="64-bit"):
        SalsaCountMin(w=64, d=1, s=8, max_bits=128, merge="sum")
    # A row too narrow to merge that far keeps its 64-bit ceiling.
    assert SalsaRow(w=8, s=8, max_bits=128).max_bits == 64


# ----------------------------------------------------------------------
# plumbing: the engine keyword, for_memory
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make", [
    lambda: SalsaRow(w=8, s=8, engine="vector"),
    lambda: TangoRow(w=8, s=8, engine="vector"),
    lambda: TangoCountMin(w=8, d=2, engine="vector"),
    lambda: SalsaCountSketch(w=8, d=3, engine="vector"),
    lambda: SalsaAeeCountMin(w=8, d=2, engine="vector"),
], ids=["SalsaRow", "TangoRow", "TangoCountMin", "SalsaCountSketch",
        "SalsaAeeCountMin"])
def test_engine_keyword_is_gone(make):
    """Rows have one storage: no row or sketch takes an ``engine``,
    bar the two below."""
    with pytest.raises(TypeError, match="engine"):
        make()


@pytest.mark.parametrize("make", [
    lambda e: SalsaCountMin(w=8, d=2, engine=e),
    lambda e: SalsaConservativeUpdate(w=8, d=2, engine=e),
    lambda e: SalsaCountMin.for_memory(1024, engine=e),
    lambda e: SalsaConservativeUpdate.for_memory(1024, engine=e),
], ids=["SalsaCountMin", "SalsaConservativeUpdate",
        "SalsaCountMin.for_memory", "SalsaConservativeUpdate.for_memory"])
def test_engine_keyword_takes_only_vector(make):
    """SALSA CMS and CUS still take ``engine="vector"`` (the repo
    benchmark passes it) and refuse every other name."""
    assert type(make("vector").rows[0]) is SalsaRow
    for name in ("bitpacked", "gpu"):
        with pytest.raises(ValueError, match="engine"):
            make(name)


@pytest.mark.parametrize("engine", sorted(ROWS))
def test_for_memory_shape_is_engine_independent(engine):
    ref = SalsaCountMin.for_memory(16 * 1024, d=4, s=8)
    sk = SalsaCountMin.for_memory(16 * 1024, d=4, s=8)
    if engine == "bitpacked":
        bitpacked(sk)
    assert (sk.w, sk.d, sk.s) == (ref.w, ref.d, ref.s)
    assert sk.memory_bytes == ref.memory_bytes
    assert type(sk.rows[0]) is ROWS[engine]


# ----------------------------------------------------------------------
# SpaceSaving satellite: heap + pre-aggregation stay exact
# ----------------------------------------------------------------------
def test_spacesaving_heap_matches_naive_min_scan():
    """The lazy heap must reproduce ``min()`` over the insertion-ordered
    dict exactly, ties included."""
    from repro.sketches import SpaceSaving

    rng = np.random.default_rng(3)
    stream = rng.integers(0, 50, 15000).tolist()  # constant count ties

    table = {}

    def naive_update(item):
        entry = table.get(item)
        if entry is not None:
            table[item] = (entry[0] + 1, entry[1])
            return
        if len(table) < 20:
            table[item] = (1, 0)
            return
        victim = min(table, key=lambda key: table[key][0])
        floor = table[victim][0]
        del table[victim]
        table[item] = (floor + 1, floor)

    ss = SpaceSaving(k=20)
    for x in stream:
        naive_update(x)
        ss.update(x)
    assert sorted(table) == sorted(ss._table)
    for item, (count, err) in table.items():
        assert ss._table[item][:2] == [count, err]


def test_spacesaving_all_hit_batches_preaggregate():
    from repro.sketches import SpaceSaving

    warm = list(range(10)) * 3
    hits = np.array([3, 7, 3, 3, 9, 7] * 50, dtype=np.int64)
    a, b = SpaceSaving(k=10), SpaceSaving(k=10)
    for x in warm:
        a.update(x)
        b.update(x)
    for x in hits.tolist():
        a.update(x)
    b.update_many(hits)     # all keys monitored: aggregated wholesale
    assert [a.query(x) for x in range(10)] == \
           [b.query(x) for x in range(10)]
    assert a.n == b.n
