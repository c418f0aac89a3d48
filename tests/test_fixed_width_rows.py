"""The fixed-width CMS, CUS and AEE as SALSA rows that never merge.

A SALSA row with ``s = max_bits = counter_bits`` has ``max_level = 0``:
it never merges, clamps a deletion at zero and saturates at
``2^s - 1``.  :class:`CountMinSketch` is ``d`` sum-merge rows of that
kind and :class:`ConservativeUpdateSketch` ``d`` max-merge ones.  The
bar is representation independence: no observer tells them from the
fixed-width rules they had as one ``(d, w)`` matrix, kept below as
:class:`Oracle` --

* CMS: add, then clamp to ``[0, cap]``;
* CUS: the target is ``min + v`` capped, and every lower counter rises
  to it;
* merge: ``min(a + b, cap)``; subtract: ``max(a - b, 0)`` (clamped at
  zero, as a deletion on the update doors is).

It must hold on every door, with the native kernel on and off, and on
the bit-packed reference rows of ``tests/reference_rows.py``.

:class:`AeeSketch` is ``d`` max-merge rows of that kind, halved by
``SalsaRow.scale_down_half``; :class:`MatrixAee` keeps the matrix
sketch it was, and the two agree down to the sampler's RNG state.
"""

import contextlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MAX,
    SUM,
    SalsaCountMin,
    SalsaRow,
    _native,
    ops,
)
from repro.core.serialize import dumps, loads
from repro.hashing import HashFamily, mix64
from repro.sketches import AeeSketch, ConservativeUpdateSketch, CountMinSketch

from answers import assert_answers
from reference_rows import bitpacked, blob
from reference_rows import build as build_on

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

#: production rows with the kernel on or off, or bit-packed rows
MODES = ("kernel", "no-kernel", "bitpacked")


class Oracle:
    """The fixed-width per-item rules over one ``(d, w)`` table of
    Python ints, hashed as the matrix sketches hashed:
    ``mix64(item ^ seed) & (w - 1)``."""

    def __init__(self, w, bits, hashes, conservative):
        self.cells = [[0] * w for _ in hashes.seeds]
        self.cap = (1 << bits) - 1
        self.mask = w - 1
        self.seeds = hashes.seeds
        self.conservative = conservative

    def slots(self, item):
        return [mix64(item ^ seed) & self.mask for seed in self.seeds]

    def update(self, item, value):
        cells = list(zip(self.cells, self.slots(item)))
        if self.conservative:
            target = min(min(row[j] for row, j in cells) + value, self.cap)
            for row, j in cells:
                if row[j] < target:
                    row[j] = target
        else:
            for row, j in cells:
                row[j] = min(max(row[j] + value, 0), self.cap)

    def query(self, item):
        return min(row[j] for row, j in zip(self.cells, self.slots(item)))

    def fold(self, other, sign):
        for row, other_row in zip(self.cells, other.cells):
            for j, b in enumerate(other_row):
                row[j] = min(max(row[j] + sign * b, 0), self.cap)


@contextlib.contextmanager
def mode(name):
    saved = _native._ENABLED
    _native._ENABLED = name != "no-kernel"
    try:
        yield
    finally:
        _native._ENABLED = saved


def build(kind, name, w, d, bits, hashes):
    """The sketch under test: the fixed-width class, on production rows
    or on bit-packed ones."""
    cls = CountMinSketch if kind == "cms" else ConservativeUpdateSketch
    sketch = cls(w=w, d=d, counter_bits=bits, hash_family=hashes)
    return bitpacked(sketch) if name == "bitpacked" else sketch


def counters(sketch):
    return [[row.read(j) for j in range(sketch.w)] for row in sketch.rows]


def fold(sketch, other, sign):
    """``merge``/``subtract`` on the CMS class, else :mod:`ops`."""
    if isinstance(sketch, CountMinSketch):
        (sketch.merge if sign > 0 else sketch.subtract)(other)
    else:
        (ops.merge if sign > 0 else ops.subtract)(sketch, other)


def feed(sketch, oracle, chunks):
    """Each chunk through ``update_many`` or per-item ``update``."""
    for chunk, batched in chunks:
        for x, v in chunk:
            oracle.update(x, v)
        if batched:
            sketch.update_many(np.array([x for x, _ in chunk], np.int64),
                               np.array([v for _, v in chunk], np.int64))
        else:
            for x, v in chunk:
                sketch.update(x, v)


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(["cms", "cus"]))
    bits = draw(st.sampled_from([1, 3, 4, 8, 32, 62, 63])
                | st.integers(1, 63))
    cap = (1 << bits) - 1
    weights = (st.integers(1, 3) | st.integers(1, INT64_MAX)
               | st.sampled_from([cap, max(1, cap // 2), cap + 1])
               .filter(lambda v: v <= INT64_MAX))
    if kind == "cms":  # Strict Turnstile deletions
        weights = weights | weights.map(lambda v: -v)
    keys = st.integers(-3, 40) | st.sampled_from([INT64_MIN, INT64_MAX])

    def chunked():
        stream = draw(st.lists(st.tuples(keys, weights), max_size=60))
        cuts = sorted(draw(st.lists(st.integers(0, len(stream)),
                                    max_size=4)))
        bounds = [0, *cuts, len(stream)]
        return [(stream[a:b], draw(st.booleans()))
                for a, b in zip(bounds, bounds[1:])]

    return dict(kind=kind, bits=bits, w=1 << draw(st.integers(1, 6)),
                d=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**32)),
                chunks=chunked(), other=chunked())


@settings(max_examples=120, deadline=None)
@given(case=cases(), name=st.sampled_from(MODES))
def test_doors_equal_the_fixed_width_oracle(case, name):
    """update / update_many over arbitrary splits, query / query_many,
    then merge and subtract of a second sketch, all equal the
    oracle's counters and answers."""
    kind, w, d, bits = case["kind"], case["w"], case["d"], case["bits"]
    hashes = HashFamily(d, case["seed"])
    with mode(name):
        sketch = build(kind, name, w, d, bits, hashes)
        oracle = Oracle(w, bits, hashes, kind == "cus")
        feed(sketch, oracle, case["chunks"])
        assert counters(sketch) == oracle.cells
        probe = [x for chunk, _ in case["chunks"] for x, _v in chunk]
        probe += [INT64_MIN, -1, 0, 7, 1000]
        expected = [oracle.query(x) for x in probe]
        assert [sketch.query(x) for x in probe] == expected
        assert_answers(sketch, probe, expected)
        assert all(row.merge_events == 0 for row in sketch.rows)

        other = build(kind, name, w, d, bits, hashes)
        other_oracle = Oracle(w, bits, hashes, kind == "cus")
        feed(other, other_oracle, case["other"])
        for sign in (+1, -1):
            fold(sketch, other, sign)
            oracle.fold(other_oracle, sign)
            assert counters(sketch) == oracle.cells
        assert counters(other) == other_oracle.cells
        assert_answers(sketch, probe, [oracle.query(x) for x in probe])


BAD_UPDATES = {
    "key past int64": (1 << 63, 1),
    "key below int64": (INT64_MIN - 1, 1),
    "bool key": (True, 1),
    "float key": (1.5, 1),
    "value past int64": (1, 1 << 63),
    "float value": (1, 2.0),
}


@pytest.mark.parametrize("name", MODES)
@pytest.mark.parametrize("kind", ["cms", "cus"])
@pytest.mark.parametrize("case", sorted(BAD_UPDATES) + ["zero", "negative"])
def test_both_doors_reject_the_same_inputs(case, kind, name):
    """Whatever one door refuses, the other refuses too, with
    ``ValueError`` and no counter moved; CUS also refuses values that
    are not positive, and CMS takes them as deletions."""
    item, value = BAD_UPDATES.get(case, (1, {"zero": 0, "negative": -1}
                                         .get(case)))
    hashes = HashFamily(2, 5)
    with mode(name):
        sketch = build(kind, name, 16, 2, 8, hashes)
        sketch.update(3, 9)
        before = counters(sketch)
        if kind == "cms" and case in ("zero", "negative"):
            sketch.update(item, value)
            sketch.update_many([item], [value])
            return
        with pytest.raises(ValueError):
            sketch.update(item, value)
        with pytest.raises(ValueError):
            sketch.update_many([3, item], [1, value])
        assert counters(sketch) == before


@pytest.mark.parametrize("engine", ["vector", "bitpacked"])
@pytest.mark.parametrize("merge", [SUM, MAX])
@pytest.mark.parametrize("bits", [1, 3, 63])
def test_rows_that_never_merge_take_any_width(bits, merge, engine):
    """``max_bits == s`` lifts the power-of-two rule on ``s``: rows of
    1, 3 and 63 bits add, clamp and saturate as the fixed-width rule
    does, per item, in a batch, and through the wire codec."""
    cap = (1 << bits) - 1
    rng = random.Random(bits)
    values = [rng.choice([1, 2, cap, cap - 1, INT64_MAX]) for _ in range(300)]
    if merge == SUM:
        values = [v if rng.random() < 0.7 else -v for v in values]
    slots = [rng.randrange(16) for _ in values]
    per_item, batched = (build_on(SalsaRow, engine, w=16, s=bits,
                                  max_bits=bits, merge=merge)
                         for _ in range(2))
    want = [0] * 16
    for j, v in zip(slots, values):
        want[j] = min(max(want[j] + v, 0), cap)
        per_item.add(j, v)
    batched.add_many(slots, values)
    for row in (per_item, batched):
        assert [row.read(j) for j in range(16)] == want
        assert row.max_level == row.merge_events == 0
    assert per_item.saturations == batched.saturations > 0
    sketch = build_on(SalsaCountMin, engine, w=16, d=1, s=bits,
                      max_bits=bits, merge=merge)
    sketch.update_many(slots, [abs(v) for v in values])
    data = blob(sketch) if engine == "bitpacked" else dumps(sketch)
    assert counters(loads(data)) == counters(sketch)


@pytest.mark.parametrize("s, max_bits", [(3, 64), (3, 6), (0, 0), (65, 65)])
def test_rows_that_can_merge_keep_power_of_two_widths(s, max_bits):
    with pytest.raises(ValueError, match="s must be"):
        SalsaRow(w=16, s=s, max_bits=max_bits)


def test_subtract_of_a_non_subset_clamps_at_zero():
    """B is no subset of A: each counter clamps at zero, as a deletion
    on the update doors does (the matrix subtract left query(2) at
    -13, a state no update door reaches)."""
    hashes = HashFamily(4, 1)
    a, b = (CountMinSketch(w=64, d=4, counter_bits=8, hash_family=hashes)
            for _ in range(2))
    a.update(2, 5)
    b.update(2, 6)
    for _ in range(3):
        a.subtract(b)
    assert a.query(2) == 0
    assert a.query_many([2]).tolist() == [0]
    assert all(row.read(j) >= 0 for row in a.rows for j in range(a.w))


@pytest.mark.parametrize("kind, bits", [("cms", 8), ("cus", 4)])
def test_saturations_are_counted_alike_on_every_door(kind, bits):
    """A sketch fed past its cap counts the same saturations per item,
    in batches with the kernel on and off, and on bit-packed rows; it
    never merges."""
    rng = np.random.default_rng(3)
    items = rng.integers(0, 20, 3000).astype(np.int64)
    values = rng.integers(1, 4, 3000).astype(np.int64)
    hashes = HashFamily(4, 2)
    seen = set()
    for name in MODES:
        with mode(name):
            per_item = build(kind, name, 32, 4, bits, hashes)
            for x, v in zip(items.tolist(), values.tolist()):
                per_item.update(x, v)
            batched = build(kind, name, 32, 4, bits, hashes)
            for lo in range(0, len(items), 512):
                batched.update_many(items[lo:lo + 512],
                                    values[lo:lo + 512])
        for sketch in (per_item, batched):
            assert counters(sketch) == counters(per_item)
            assert all(row.merge_events == 0 for row in sketch.rows)
            seen.add(sum(row.saturations for row in sketch.rows))
    assert len(seen) == 1 and seen.pop() > 0


@pytest.mark.parametrize("cls", [CountMinSketch, ConservativeUpdateSketch])
@pytest.mark.parametrize("bits", [1, 5, 32, 63])
def test_fixed_width_contract(cls, bits):
    """Shape, cap, sizing and answer dtype of the fixed-width classes."""
    sketch = cls(w=64, d=3, counter_bits=bits, seed=4)
    assert (sketch.counter_bits, sketch.cap) == (bits, (1 << bits) - 1)
    assert sketch.memory_bytes == 3 * 64 * bits // 8
    assert all(type(row) is SalsaRow for row in sketch.rows)
    assert sketch.query_dtype == np.int64
    sketch.update_many([1, 1, 2], [sketch.cap, sketch.cap, 1])
    assert_answers(sketch, [1, 2, 3], [sketch.cap, 1, 0])
    seed = sketch.hashes.seeds[0]
    assert sketch.zero_counters(0) == 64 - len({mix64(x ^ seed) & 63
                                                for x in (1, 2)})
    sized = cls.for_memory(3 * 64 * bits // 8, d=3, counter_bits=bits)
    assert (sized.w, sized.memory_bytes) == (64, sketch.memory_bytes)


@pytest.mark.parametrize("module, figure", [
    ("figures_tasks", "fig14c"), ("figures_extensions", "ext_distinct")])
def test_distinct_count_figures_score_the_baseline_as_a_baseline(
        module, figure, monkeypatch):
    """The fixed-width CMS is a ``SalsaCountMin`` subclass now, yet the
    count-distinct figures still give it the baseline Linear Counting
    estimator and give SALSA CMS SALSA's."""
    import importlib

    from repro.experiments import EXPERIMENTS

    figures = importlib.import_module(f"repro.experiments.{module}")
    seen = []
    for name in ("distinct_count_baseline", "distinct_count_salsa"):
        real = getattr(figures, name)
        monkeypatch.setattr(figures, name, lambda sk, _real=real, _name=name:
                            seen.append((_name, type(sk))) or _real(sk))
    EXPERIMENTS[figure](length=2_000, trials=1)
    assert ("distinct_count_baseline", CountMinSketch) in seen
    assert ("distinct_count_salsa", SalsaCountMin) in seen
    assert set(seen) == {("distinct_count_baseline", CountMinSketch),
                         ("distinct_count_salsa", SalsaCountMin)}


class MatrixAee:
    """The fixed-width AEE as it was before its rows became SALSA rows:
    one ``(d, w)`` int64 matrix, its own Binomial halving, the same
    RNG seed and update rule (a counter at ``cap`` stays put, the
    other rows take the add, then the sketch downsamples)."""

    def __init__(self, w, d, counter_bits, mode, probabilistic,
                 speed_interval, seed):
        self.w, self.cap = w, (1 << counter_bits) - 1
        self.seeds = HashFamily(d, seed).seeds
        self.mat = np.zeros((d, w), dtype=np.int64)
        self.mode, self.probabilistic = mode, probabilistic
        self.speed_interval = speed_interval or (self.cap + 1) * w // 4
        self.p = 1.0
        self.volume = 0
        self._sampled = 0
        self._rng = random.Random(seed ^ 0xAEE)

    def _halve_counters(self):
        if not self.probabilistic:
            self.mat >>= 1
            return
        rng = self._rng
        cells = memoryview(self.mat)
        for cell in zip(*(axis.tolist() for axis in np.nonzero(self.mat))):
            c = cells[cell]
            if c > 64:
                half = int(rng.gauss(c / 2, math.sqrt(c) / 2) + 0.5)
                cells[cell] = min(c, max(0, half))
            else:
                cells[cell] = sum(1 for _ in range(c) if rng.random() < 0.5)

    def downsample(self):
        self.p /= 2.0
        self._sampled = 0
        self._halve_counters()

    def update(self, item, value):
        self.volume += value
        for _ in range(value):
            self._update_one(item)

    def _update_one(self, item):
        if self.p < 1.0 and self._rng.random() >= self.p:
            return
        if self.mode == "speed":
            self._sampled += 1
            if self._sampled >= self.speed_interval:
                self.downsample()
                if self._rng.random() >= 0.5:
                    return
        cells = memoryview(self.mat)
        overflowed = False
        for row, seed in enumerate(self.seeds):
            cell = row, mix64(item ^ seed) & (self.w - 1)
            new = cells[cell] + 1
            if new > self.cap:
                overflowed = True
            else:
                cells[cell] = new
        if overflowed:
            self.downsample()

    def query(self, item):
        return min(int(self.mat[row, mix64(item ^ seed) & (self.w - 1)])
                   for row, seed in enumerate(self.seeds)) / self.p


@st.composite
def aee_cases(draw):
    mode_ = draw(st.sampled_from(["accuracy", "speed"]))
    stream = draw(st.lists(st.tuples(st.integers(-3, 40),
                                     st.integers(1, 3) | st.integers(1, 90)),
                           max_size=50))
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=4)))
    bounds = [0, *cuts, len(stream)]
    return dict(
        w=1 << draw(st.integers(1, 6)), d=draw(st.integers(1, 4)),
        counter_bits=draw(st.integers(1, 16)), mode=mode_,
        probabilistic=draw(st.booleans()),
        speed_interval=(draw(st.integers(1, 20)) if mode_ == "speed"
                        else None),
        seed=draw(st.integers(0, 2**32)),
        chunks=[(stream[a:b], draw(st.booleans()))
                for a, b in zip(bounds, bounds[1:])])


@settings(max_examples=150, deadline=None)
@given(case=aee_cases(), name=st.sampled_from(["kernel", "no-kernel"]))
def test_aee_equals_the_matrix_aee(case, name):
    """The AEE on SALSA rows is the matrix AEE down to the RNG state:
    ``p``, ``volume``, ``_sampled``, every counter and both query doors
    agree after every chunk, per item or through ``update_many``."""
    chunks = case.pop("chunks")
    with mode(name):
        sketch = AeeSketch(**case)
        oracle = MatrixAee(**case)
        probe = [INT64_MIN, -1, 0, 7, 1000]
        for chunk, batched in chunks:
            feed(sketch, oracle, [(chunk, batched)])
            probe += [x for x, _ in chunk]
            assert (sketch.p, sketch.volume, sketch._sampled) == (
                oracle.p, oracle.volume, oracle._sampled)
            assert sketch._rng.getstate() == oracle._rng.getstate()
            assert counters(sketch) == oracle.mat.tolist()
            expected = [oracle.query(x) for x in probe]
            assert [sketch.query(x) for x in probe] == expected
            assert_answers(sketch, probe, expected)


def test_aee_needs_two_counters_a_row():
    """Its rows are SALSA rows, so ``w = 1`` raises as it does for the
    fixed-width CMS; ``for_memory`` never builds one."""
    for cls in (AeeSketch, CountMinSketch):
        with pytest.raises(ValueError, match="w must be"):
            cls(w=1)


@pytest.mark.parametrize("aee_mode", ["accuracy", "speed"])
def test_aee_batch_at_p_one_takes_the_bulk_path(aee_mode, monkeypatch):
    """While ``p == 1``, a batch in which no add saturates goes through
    SALSA AEE's bulk path: with the kernel on it makes no
    ``SalsaRow.add`` call, and the sketch ends as the per-item loop
    leaves it (MaxSpeed counts every arrival as sampled)."""
    if _native.library() is None:
        pytest.skip("native kernel unavailable")
    rng = np.random.default_rng(5)
    items = rng.integers(-500, 500, 4000)
    values = rng.integers(1, 4, 4000)
    case = dict(w=256, d=4, counter_bits=16, mode=aee_mode,
                speed_interval=10**6, seed=2)
    per_item, batched = AeeSketch(**case), AeeSketch(**case)
    for x, v in zip(items.tolist(), values.tolist()):
        per_item.update(x, v)
    calls = []
    add = SalsaRow.add
    monkeypatch.setattr(SalsaRow, "add",
                        lambda row, j, v: calls.append(j) or add(row, j, v))
    with mode("kernel"):
        batched.update_many(items, values)
    monkeypatch.undo()
    assert calls == []
    assert batched.p == per_item.p == 1.0
    assert (batched.volume, batched._sampled) == (per_item.volume,
                                                  per_item._sampled)
    assert batched._rng.getstate() == per_item._rng.getstate()
    assert counters(batched) == counters(per_item)
    assert sum(row.saturations for row in batched.rows) == 0


@pytest.mark.parametrize("name", ["kernel", "no-kernel"])
@pytest.mark.parametrize("short", [1, 0, -1])
def test_max_speed_batch_that_reaches_the_interval_walks(short, name):
    """At ``p == 1`` a MaxSpeed batch whose total brings ``_sampled``
    to ``speed_interval`` fires a proactive downsample inside the
    batch, so it must walk; one arrival short of it may go in bulk.
    Either way the sketch stays the matrix AEE, RNG state included."""
    case = dict(w=64, d=3, counter_bits=16, mode="speed",
                probabilistic=True, speed_interval=100, seed=7)
    sketch, oracle = AeeSketch(**case), MatrixAee(**case)
    first = [(x % 13, 2) for x in range(15)]
    second = [(x % 17, 1) for x in range(70 - short)]
    with mode(name):
        feed(sketch, oracle, [(first, True), (second, True)])
        assert sketch.p == oracle.p == (1.0 if short > 0 else 0.5)
        feed(sketch, oracle, [(first, True)])
    assert (sketch.p, sketch.volume, sketch._sampled) == (
        oracle.p, oracle.volume, oracle._sampled)
    assert sketch._rng.getstate() == oracle._rng.getstate()
    assert counters(sketch) == oracle.mat.tolist()
