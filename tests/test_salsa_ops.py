"""Tests for SALSA sketch algebra: merge s(A u B) and subtract s(A \\ B)."""

import random

import pytest

from repro.core import (
    SalsaAeeCountMin,
    SalsaCountMin,
    SalsaCountSketch,
    SalsaConservativeUpdate,
    SalsaRow,
    TangoCountMin,
    ops,
)
from repro.hashing import HashFamily
from repro.sketches import AeeSketch
from repro.streams import Trace, split_halves, zipf_trace

import numpy as np

from reference_rows import build


def _family(d, seed):
    return HashFamily(d, seed)


class TestCompatibilityChecks:
    def test_shape_mismatch(self):
        fam = _family(4, 1)
        a = SalsaCountMin(w=64, d=4, hash_family=fam)
        b = SalsaCountMin(w=128, d=4, hash_family=fam)
        with pytest.raises(ValueError):
            ops.merge(a, b)

    def test_hash_mismatch(self):
        a = SalsaCountMin(w=64, d=4, seed=1)
        b = SalsaCountMin(w=64, d=4, seed=2)
        with pytest.raises(ValueError):
            ops.merge(a, b)

    @staticmethod
    def _assert_rejected_untouched(a, b):
        """Both ops raise ValueError and leave ``a`` as it was."""
        rng = np.random.default_rng(4)
        for sk in (a, b):
            sk.update_many(rng.integers(0, 50, 400), rng.integers(1, 90, 400))
        before = [(list(row.counters()), row.merge_events)
                  for row in a.rows]
        for op in (ops.merge, ops.subtract):
            with pytest.raises(ValueError):
                op(a, b)
        assert [(list(row.counters()), row.merge_events)
                for row in a.rows] == before

    def test_type_mismatch(self):
        fam = _family(4, 1)
        self._assert_rejected_untouched(
            SalsaCountMin(w=64, d=4, hash_family=fam),
            SalsaConservativeUpdate(w=64, d=4, hash_family=fam))

    def test_merge_rule_mismatch(self):
        fam = _family(4, 1)
        self._assert_rejected_untouched(
            SalsaCountMin(w=64, d=4, merge="sum", hash_family=fam),
            SalsaCountMin(w=64, d=4, merge="max", hash_family=fam))

    def test_signedness_mismatch(self):
        fam = _family(4, 1)
        a = SalsaCountSketch(w=64, d=4, hash_family=fam)
        b = SalsaCountSketch(w=64, d=4, hash_family=fam)
        b.rows = [SalsaRow(w=64, s=8, merge="sum") for _ in range(4)]
        self._assert_rejected_untouched(a, b)

    def test_max_bits_mismatch(self):
        fam = _family(4, 1)
        self._assert_rejected_untouched(
            SalsaCountMin(w=64, d=4, hash_family=fam),
            SalsaCountMin(w=64, d=4, max_bits=16, hash_family=fam))

    def test_tango_is_refused(self):
        """Tango rows have no aligned blocks to coarsen: a clear
        ValueError, not an AttributeError from inside the fold."""
        fam = _family(2, 1)
        self._assert_rejected_untouched(
            TangoCountMin(w=64, d=2, hash_family=fam),
            TangoCountMin(w=64, d=2, hash_family=fam))

    @pytest.mark.parametrize("make", [
        lambda: SalsaAeeCountMin(w=64, d=2, seed=1),
        lambda: AeeSketch(w=64, d=2, seed=1),
    ], ids=["SalsaAeeCountMin", "AeeSketch"])
    def test_aee_is_refused(self, make):
        """Two AEE sketches count at sampling rates of their own; adding
        b's counters into a's (``a`` at p = 1/2, ``b`` at p = 1) would
        scale b's arrivals by a's rate."""
        a, b = make(), make()
        a.downsample()
        assert (a.p, b.p) == (0.5, 1.0)
        self._assert_rejected_untouched(a, b)


class TestCmsMerge:
    def test_union_overestimates_both_streams(self):
        fam = _family(4, 3)
        a = SalsaCountMin(w=256, d=4, hash_family=fam)
        b = SalsaCountMin(w=256, d=4, hash_family=fam)
        truth = {}
        for x in zipf_trace(5_000, 1.0, universe=800, seed=3):
            a.update(x)
            truth[x] = truth.get(x, 0) + 1
        for x in zipf_trace(5_000, 1.0, universe=800, seed=4):
            b.update(x)
            truth[x] = truth.get(x, 0) + 1
        ops.merge(a, b)
        assert all(a.query(x) >= f for x, f in truth.items())

    def test_union_of_disjoint_singletons(self):
        fam = _family(4, 5)
        a = SalsaCountMin(w=1 << 12, d=4, hash_family=fam)
        b = SalsaCountMin(w=1 << 12, d=4, hash_family=fam)
        a.update(1, 10)
        b.update(2, 20)
        ops.merge(a, b)
        assert a.query(1) == 10
        assert a.query(2) == 20

    def test_union_layout_covers_both(self):
        """Each counter's size is at least its size in either input."""
        fam = _family(1, 6)
        a = SalsaCountMin(w=16, d=1, hash_family=fam)
        b = SalsaCountMin(w=16, d=1, hash_family=fam)
        a.rows[0].add(2, 300)   # a has a 16-bit counter at <2,3>
        b.rows[0].add(8, 70_000)  # b has a 32-bit counter at <8..11>
        ops.merge(a, b)
        assert a.rows[0].level_of(2) >= 1
        assert a.rows[0].level_of(8) >= 2

    def test_merge_triggered_overflow(self):
        """Summing two near-full counters overflows and re-merges."""
        fam = _family(1, 7)
        a = SalsaCountMin(w=16, d=1, hash_family=fam)
        b = SalsaCountMin(w=16, d=1, hash_family=fam)
        a.rows[0].add(0, 250)
        b.rows[0].add(0, 250)
        ops.merge(a, b)
        assert a.rows[0].read(0) >= 250  # max-merge keeps upper bound
        assert a.rows[0].level_of(0) >= 0

    def test_cms_subtract_subset(self):
        """s(A \\ B) valid when B is a subset of A."""
        fam = _family(4, 8)
        a = SalsaCountMin(w=1 << 10, d=4, merge="sum", hash_family=fam)
        b = SalsaCountMin(w=1 << 10, d=4, merge="sum", hash_family=fam)
        for _ in range(30):
            a.update(1)
        for _ in range(10):
            b.update(1)
        ops.subtract(a, b)
        assert a.query(1) >= 20


class TestBulkAbsorbEquivalence:
    """The native absorb is observably identical to the reference
    per-counter walk: merging (or subtracting) two sketches must leave
    every counter value and merge level equal to the same operation on
    bit-packed twins (``tests/reference_rows.py``) -- the
    representation-independence bar of the CRDT-emulation lens.
    Small rows + heavy keys make overflow-triggered merges (the dirty
    replay path) common."""

    CONFIGS = {
        "cms-sum": (SalsaCountMin, dict(w=32, d=2, s=8, merge="sum")),
        "cms-max": (SalsaCountMin, dict(w=32, d=2, s=8, merge="max")),
        "cus": (SalsaConservativeUpdate, dict(w=32, d=2, s=8)),
        "cs": (SalsaCountSketch, dict(w=32, d=3, s=8)),
    }

    def _streams(self, signed, seed, n=400):
        rng = random.Random(seed)
        if signed:
            return [(rng.randrange(60), rng.choice([9, 17, 40, 33, -25]))
                    for _ in range(n)]
        return [(rng.randrange(60), rng.randrange(1, 300))
                for _ in range(n)]

    def _pair(self, cls, kw, fam, engine, stream):
        sk = build(cls, engine, hash_family=fam, **kw)
        for x, v in stream:
            sk.update(x, v)
        return sk

    @staticmethod
    def _assert_identical(sa, sb):
        for ra, rb in zip(sa.rows, sb.rows):
            for j in range(ra.w):
                assert ra.level_of(j) == rb.level_of(j)
                assert ra.read(j) == rb.read(j)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_merge_engine_independent(self, name):
        cls, kw = self.CONFIGS[name]
        fam = _family(kw["d"], 21)
        signed = name == "cs"
        stream_a = self._streams(signed, 100)
        stream_b = self._streams(signed, 200)
        merged = {}
        for engine in ("bitpacked", "vector"):
            a = self._pair(cls, kw, fam, engine, stream_a)
            b = self._pair(cls, kw, fam, engine, stream_b)
            ops.merge(a, b)
            merged[engine] = a
        self._assert_identical(merged["bitpacked"], merged["vector"])
        assert any(level > 0 for row in merged["vector"].rows
                   for _s, level, _v in row.counters()), \
            "stream too tame: no merged counters exercised"

    @pytest.mark.parametrize("name", ["cms-sum", "cs"])
    def test_subtract_engine_independent(self, name):
        cls, kw = self.CONFIGS[name]
        fam = _family(kw["d"], 22)
        signed = name == "cs"
        stream_a = self._streams(signed, 300)
        stream_b = self._streams(signed, 400, n=150)
        result = {}
        for engine in ("bitpacked", "vector"):
            a = self._pair(cls, kw, fam, engine, stream_a)
            b = self._pair(cls, kw, fam, engine, stream_b)
            ops.subtract(a, b)
            result[engine] = a
        self._assert_identical(result["bitpacked"], result["vector"])

    def test_merge_across_engines(self):
        """a and b need not share a storage: production rows absorb
        bit-packed ones and vice versa, with identical results."""
        cls, kw = self.CONFIGS["cms-sum"]
        fam = _family(kw["d"], 23)
        stream_a = self._streams(False, 500)
        stream_b = self._streams(False, 600)
        bp = self._pair(cls, kw, fam, "bitpacked", stream_a)
        vec = self._pair(cls, kw, fam, "vector", stream_a)
        ops.merge(bp, self._pair(cls, kw, fam, "vector", stream_b))
        ops.merge(vec, self._pair(cls, kw, fam, "bitpacked", stream_b))
        self._assert_identical(bp, vec)

    def test_merge_into_sparse_target_takes_bulk_path(self):
        """A wide, barely-touched pair: no merges anywhere, so the
        vector path is pure scatter-add -- still counter-identical."""
        fam = _family(2, 24)
        result = {}
        for engine in ("bitpacked", "vector"):
            a = build(SalsaCountMin, engine, w=1 << 10, d=2, merge="sum",
                      hash_family=fam)
            b = build(SalsaCountMin, engine, w=1 << 10, d=2, merge="sum",
                      hash_family=fam)
            a.update(1, 10)
            b.update(2, 20)
            b.update(3, 7)
            ops.merge(a, b)
            result[engine] = a
        self._assert_identical(result["bitpacked"], result["vector"])
        assert result["vector"].query(1) == 10
        assert result["vector"].query(2) == 20


class TestCusMerge:
    def test_union_overestimates(self):
        fam = _family(4, 9)
        a = SalsaConservativeUpdate(w=256, d=4, hash_family=fam)
        b = SalsaConservativeUpdate(w=256, d=4, hash_family=fam)
        truth = {}
        for x in zipf_trace(4_000, 1.0, universe=600, seed=9):
            a.update(x)
            truth[x] = truth.get(x, 0) + 1
        for x in zipf_trace(4_000, 1.0, universe=600, seed=10):
            b.update(x)
            truth[x] = truth.get(x, 0) + 1
        ops.merge(a, b)
        assert all(a.query(x) >= f for x, f in truth.items())


class TestCsSubtract:
    def test_fig3_style_subtract_exact_when_sparse(self):
        fam = _family(5, 10)
        a = SalsaCountSketch(w=1 << 12, d=5, hash_family=fam)
        b = SalsaCountSketch(w=1 << 12, d=5, hash_family=fam)
        a.update(1, 100)
        a.update(2, 30)
        b.update(1, 40)
        b.update(3, 7)
        ops.subtract(a, b)
        assert a.query(1) == 60
        assert a.query(2) == 30
        assert a.query(3) == -7

    def test_merge_then_query(self):
        fam = _family(5, 11)
        a = SalsaCountSketch(w=1 << 12, d=5, hash_family=fam)
        b = SalsaCountSketch(w=1 << 12, d=5, hash_family=fam)
        a.update(9, 500)
        b.update(9, 250)
        ops.merge(a, b)
        assert a.query(9) == 750

    def test_change_detection_shape(self):
        """Difference sketch estimates frequency *changes* between two
        halves (the Fig 15 c/d mechanism)."""
        fam = _family(5, 12)
        rng = np.random.default_rng(12)
        first = rng.integers(0, 50, size=4_000)
        second = np.concatenate([
            rng.integers(0, 50, size=3_000),
            np.full(1_000, 7),  # item 7 surges in the second half
        ])
        trace = Trace(np.concatenate([first, second]))
        a_half, b_half = split_halves(trace)
        sa = SalsaCountSketch(w=1 << 10, d=5, hash_family=fam)
        sb = SalsaCountSketch(w=1 << 10, d=5, hash_family=fam)
        for x in a_half:
            sa.update(x)
        for x in b_half:
            sb.update(x)
        true_change = (b_half.frequencies().get(7, 0)
                       - a_half.frequencies().get(7, 0))
        ops.subtract(sb, sa)
        assert sb.query(7) == pytest.approx(true_change, rel=0.25)

    def test_subtract_with_merged_counters(self):
        """Subtraction still works once counters have merged."""
        fam = _family(5, 13)
        a = SalsaCountSketch(w=64, d=5, s=8, hash_family=fam)
        b = SalsaCountSketch(w=64, d=5, s=8, hash_family=fam)
        rng = random.Random(13)
        truth = {}
        for _ in range(3_000):
            x = rng.randrange(40)
            a.update(x)
            truth[x] = truth.get(x, 0) + 1
        for _ in range(1_000):
            x = rng.randrange(40)
            b.update(x)
            truth[x] = truth.get(x, 0) - 1
        ops.subtract(a, b)
        errors = [a.query(x) - f for x, f in truth.items()]
        mean_abs = sum(abs(e) for e in errors) / len(errors)
        assert mean_abs < 120  # collisions only, no systematic corruption
