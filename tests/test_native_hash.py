"""The native hash kernel and the kernel call boundary.

The batch methods of :class:`HashFamily` and the worker keys of
``core/distributed.py`` run the splitmix64 mixer in C when the kernel
library loads.  No observer may tell that path from the NumPy reference
(:func:`mix64_many`) or from per-item :func:`mix64`: on any int64 keys
the answers are bit-identical with the kernel on and off, strided views
answer like their contiguous copies, and every other input gives what
it gives without the kernel, error included.  The vector engine's array
addresses are checked once per array and reused, so every way of
copying a sketch must still give an independent sketch.  The hashing
layer must not import the core layer, and the library still loads at
the first batch, never earlier.
"""

import contextlib
import copy
import os
import pickle
import shutil
import subprocess
import sys
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import repro
from repro.core import SalsaCountMin, SalsaCountSketch, _native, serialize
from repro.core.distributed import HASH, _worker_keys
from repro.hashing import HashFamily, mix64, mix64_many

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


@contextlib.contextmanager
def kernel(on: bool):
    saved = _native._ENABLED
    _native._ENABLED = on
    try:
        yield
    finally:
        _native._ENABLED = saved


needs_kernel = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on PATH")

KEYS = st.lists(st.one_of(st.sampled_from([0, 1, -1, INT64_MIN, INT64_MAX]),
                          st.integers(INT64_MIN, INT64_MAX)), max_size=40)


def batch_answers(fam: HashFamily, items: np.ndarray, w: int) -> list:
    """Every batch method's answer, as (dtype, shape, values)."""
    outs = [fam.raw_many(items, 1), fam.index_many(items, 2, w),
            fam.raw_matrix(items), fam.raw_matrix(items, 2),
            fam.index_matrix(items, w), fam.index_matrix(items, w, 1),
            fam.sign_many(items, 0), _worker_keys(items, 3, HASH, 7),
            _worker_keys(items, 4, HASH, 7)]
    return [(out.dtype, out.shape, out.tolist()) for out in outs]


def per_item_answers(fam: HashFamily, keys: list, w: int) -> list:
    """What :func:`batch_answers` must read, from per-item ``mix64``."""
    mask = w - 1
    raw = [[fam.raw(x, r) for x in keys] for r in range(fam.d)]
    return [raw[1], [h & mask for h in raw[2]], raw, raw[:2],
            [[h & mask for h in row] for row in raw],
            [[h & mask for h in raw[0]]],
            [1 if h >> 63 else -1 for h in raw[0]],
            [mix64(x ^ mix64(7)) % 3 for x in keys],
            [mix64(x ^ mix64(7)) % 4 for x in keys]]


@settings(max_examples=80, deadline=None)
@given(KEYS, st.sampled_from([2, 64, 1 << 20, 1 << 63]),
       st.integers(0, 2 ** 32))
def test_batch_hashing_equals_per_item_mix64(keys, w, seed):
    fam = HashFamily(3, seed)
    items = np.array(keys, dtype=np.int64)
    n, u64, i64 = len(keys), np.dtype(np.uint64), np.dtype(np.int64)
    kinds = [(u64, (n,)), (i64, (n,)), (u64, (3, n)), (u64, (2, n)),
             (i64, (3, n)), (i64, (1, n)), (i64, (n,)), (i64, (n,)),
             (i64, (n,))]
    want = per_item_answers(fam, keys, w)
    for on in (True, False):
        with kernel(on):
            got = batch_answers(fam, items, w)
        assert [out for _dt, _shape, out in got] == want
        assert [(dt, shape) for dt, shape, _out in got] == kinds


@settings(max_examples=40, deadline=None)
@given(KEYS, st.integers(1, 3))
def test_strided_views_answer_like_their_copies(keys, step):
    fam = HashFamily(3, 11)
    wide = np.repeat(np.array(keys, dtype=np.int64), step)
    view = wide[::step]
    with kernel(True):
        assert batch_answers(fam, view, 64) == \
            batch_answers(fam, np.ascontiguousarray(view), 64)
    with kernel(False):
        assert batch_answers(fam, view, 64) == \
            batch_answers(fam, np.ascontiguousarray(view), 64)


ODD_INPUTS = {
    "int32-odd-bytes": np.arange(3, dtype=np.int32),
    "int32-pairs": np.arange(4, dtype=np.int32),
    "int32-strided": np.arange(8, dtype=np.int32)[::2],
    "uint64": np.array([0, 1, 2 ** 64 - 1], dtype=np.uint64),
    "uint64-strided": np.arange(6, dtype=np.uint64)[::3],
    "big-endian": np.array([1, -2, 3], dtype=">i8"),
    "float64": np.array([1.5, -2.0], dtype=np.float64),
    "bool": np.array([True, False]),
    "object": np.array([1, 2], dtype=object),
    "2-d": np.arange(6, dtype=np.int64).reshape(2, 3),
    "0-d": np.array(5, dtype=np.int64),
    "empty": np.zeros(0, dtype=np.int64),
    "read-only": np.frombuffer(np.arange(4, dtype=np.int64).tobytes(),
                               dtype=np.int64),
    "list": [1, 2, 3],
}


def outcome(call):
    try:
        out = call()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    return type(out), out.dtype, out.shape, out.tolist()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # 0-d
@pytest.mark.parametrize("name", sorted(ODD_INPUTS))
def test_other_inputs_give_what_the_reference_gives(name):
    """Any input the kernel does not take goes to the NumPy reference,
    so it answers, or raises, exactly as it does without the kernel."""
    items, fam = ODD_INPUTS[name], HashFamily(3, 5)
    calls = [lambda: fam.raw_many(items, 1),
             lambda: fam.index_many(items, 1, 64),
             lambda: fam.raw_matrix(items),
             lambda: fam.index_matrix(items, 64, 2),
             lambda: fam.sign_many(items, 2),
             lambda: _worker_keys(items, 3, HASH, 7)]
    with kernel(True):
        on = [outcome(call) for call in calls]
    with kernel(False):
        off = [outcome(call) for call in calls]
    assert on == off
    if name in ("int32-odd-bytes", "int32-strided"):
        assert on == [ValueError] * len(calls)


def test_odd_rows_and_widths_give_what_the_reference_gives():
    fam = HashFamily(2, 5)
    items = np.array([0, -1, 5, INT64_MIN, INT64_MAX], dtype=np.int64)
    calls = [lambda: fam.raw_many(items, 2), lambda: fam.raw_many(items, -1),
             lambda: fam.raw_matrix(items, 5), lambda: fam.raw_matrix(items, 0)]
    for w in (0, -4, 64.0, 100, np.int64(64), 1 << 64, (1 << 64) + 1):
        calls += [lambda w=w: fam.index_many(items, 0, w),
                  lambda w=w: fam.index_matrix(items, w)]
    with kernel(True):
        on = [outcome(call) for call in calls]
    with kernel(False):
        off = [outcome(call) for call in calls]
    assert on == off
    assert on[0] is IndexError


@needs_kernel
def test_batch_hashing_runs_in_the_kernel(monkeypatch):
    """The equalities above compare two paths only if the kernel
    really runs when it loads."""
    calls = []
    mix = _native.mix
    monkeypatch.setattr(_native, "mix",
                        lambda *args: calls.append(1) or mix(*args))
    fam, items = HashFamily(4, 1), np.arange(100, dtype=np.int64)
    with kernel(True):
        fam.index_many(items, 0, 64)
        fam.index_matrix(items, 64)
        _worker_keys(items, 3, HASH, 1)
    assert len(calls) == 3
    with kernel(False):
        fam.index_many(items, 0, 64)
    assert len(calls) == 3


def test_mix_rejects_malformed_arrays():
    if _native.library() is None:
        pytest.skip("native kernel unavailable")
    items = np.arange(4, dtype=np.int64)
    out = np.zeros((2, 4), dtype=np.uint64)
    for bad_items, bad_out in ((items.astype(np.int32), out),
                               (items[::2], out[:, :2]),
                               (items, out[:, ::2]),
                               (items, np.zeros((3, 4), np.uint64)),
                               (items, out.astype(np.float64))):
        with pytest.raises(ValueError):
            _native.mix(bad_items, (1, 2), 63, bad_out)
    out.flags.writeable = False
    with pytest.raises(ValueError):
        _native.mix(items, (1, 2), 63, out)


# ----------------------------------------------------------------------
# layering and lazy loading
# ----------------------------------------------------------------------
def test_hashing_imports_nothing_from_the_core_layer():
    """``import repro`` loads the whole public API, so the parent
    package is stood up empty to see what ``repro.hashing`` itself
    imports."""
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('repro')\n"
        f"pkg.__path__ = [{os.path.dirname(repro.__file__)!r}]\n"
        "sys.modules['repro'] = pkg\n"
        "import repro.hashing\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60)
    loaded = eval(out.stdout.strip().splitlines()[-1])  # noqa: S307
    assert "repro.hashing.family" in loaded
    assert [m for m in loaded if not m.startswith("repro.hashing")] == []


def test_no_compiler_batch_hashing_warns_once_and_answers_like_numpy(
        monkeypatch):
    def no_cc():
        raise OSError("no C compiler ('cc') on PATH")

    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_build", no_cc)
    fam = HashFamily(4, 3)
    items = np.array([0, 1, -1, INT64_MIN, INT64_MAX, 12345], np.int64)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = [fam.index_many(items, 1, 1024), fam.index_matrix(items, 1024),
               fam.raw_many(items, 3), _worker_keys(items, 5, HASH, 2)]
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "no C compiler" in str(caught[0].message)
    seeds = np.array(fam.seeds, dtype=np.uint64)
    raw = mix64_many(items.view(np.uint64)[None, :] ^ seeds[:, None])
    salt = np.uint64(mix64(2))
    assert got[0].tolist() == (raw[1] & np.uint64(1023)).tolist()
    assert got[1].tolist() == (raw & np.uint64(1023)).tolist()
    assert got[2].tolist() == raw[3].tolist()
    assert got[3].tolist() == (mix64_many(items.view(np.uint64) ^ salt)
                               % np.uint64(5)).tolist()


def test_per_item_hashing_never_loads_the_kernel(monkeypatch):
    def fail():
        raise AssertionError("per-item hashing reached the loader")

    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_load", fail)
    fam = HashFamily(4, 1)
    assert fam.indexes(-3, 64) == [fam.index(-3, r, 64) for r in range(4)]
    assert _native._lib is None


# ----------------------------------------------------------------------
# copy safety of the reused row addresses
# ----------------------------------------------------------------------
def _stream(rng, n, signed):
    keys = rng.choice(np.array([7, 11, 12, 40, 41, INT64_MIN], np.int64), n)
    values = rng.integers(1, 600, n)
    if signed:
        values *= rng.choice([-1, 1], n)
    return keys, values.astype(np.int64)


COPIES = {
    "deepcopy": copy.deepcopy,
    "pickle": lambda sk: pickle.loads(pickle.dumps(sk)),
    "row-copy": lambda sk: _with_rows(sk, [row.copy() for row in sk.rows]),
    "serialize": lambda sk: serialize.loads(serialize.dumps(sk)),
}


def _with_rows(sketch, rows):
    out = copy.copy(sketch)
    out.rows = rows
    return out


@needs_kernel
@pytest.mark.parametrize("cls", [SalsaCountMin, SalsaCountSketch])
@pytest.mark.parametrize("how", sorted(COPIES))
def test_copies_after_a_native_batch_are_independent(cls, how):
    rng = np.random.default_rng(8)
    signed = cls is SalsaCountSketch
    first, second = _stream(rng, 300, signed), _stream(rng, 300, signed)
    sketch = cls(w=64, d=2, s=8, seed=3)
    with kernel(True):
        sketch.update_many(*first)
        blob = serialize.dumps(sketch)
        clone = COPIES[how](sketch)
        clone.update_many(*second)
        # and the original still writes its own arrays, not the clone's
        twin_of_original = serialize.loads(blob)
        sketch.update_many(*first)
        twin_of_original.update_many(*first)
        assert serialize.dumps(sketch) == serialize.dumps(twin_of_original)
    twin = cls(w=64, d=2, s=8, seed=3)
    for keys, values in (first, second):
        for x, v in zip(keys.tolist(), values.tolist()):
            twin.update(x, v)
    assert serialize.dumps(clone) == serialize.dumps(twin)
    probe = np.array([7, 11, 12, 40, 41, INT64_MIN, 99], np.int64)
    assert clone.query_many(probe).tolist() == twin.query_many(probe).tolist()
    if how != "serialize":   # the wire format does not carry the counts
        assert ([row.merge_events for row in clone.rows]
                == [row.merge_events for row in twin.rows])


@needs_kernel
@pytest.mark.parametrize("cls", [SalsaCountMin, SalsaCountSketch])
def test_a_copy_leaves_the_original_byte_identical(cls):
    rng = np.random.default_rng(9)
    signed = cls is SalsaCountSketch
    sketch = cls(w=64, d=2, s=8, seed=4)
    with kernel(True):
        sketch.update_many(*_stream(rng, 300, signed))
        blob = serialize.dumps(sketch)
        for how in sorted(COPIES):
            COPIES[how](sketch).update_many(*_stream(rng, 300, signed))
            assert serialize.dumps(sketch) == blob, how


@needs_kernel
def test_a_replaced_array_is_checked_again():
    """An engine whose arrays were swapped gets fresh addresses: the
    kernel writes the new arrays, and a bad one is refused."""
    sketch = SalsaCountMin(w=64, d=1, s=8, seed=1)
    keys = np.arange(10, dtype=np.int64)
    sketch.update_many(keys, keys + 1)
    engine = sketch.rows[0].engine
    old = engine.values
    engine.values = old.copy()
    sketch.update_many(keys, keys + 1)
    assert sketch.query_many(keys).tolist() == (2 * (keys + 1)).tolist()
    assert engine.values is not old and not np.array_equal(engine.values,
                                                           old)
    engine.values = engine.values[::-1]   # a strided view
    with pytest.raises(ValueError):
        sketch.update_many(keys, keys + 1)
