"""Tests for SALSA sketch serialization."""

import pytest

from repro.core import (
    SalsaConservativeUpdate,
    SalsaCountMin,
    SalsaCountSketch,
    ops,
)
from repro.core.serialize import dumps, loads
from repro.streams import zipf_trace


def _fill(sketch, seed=0, n=5_000):
    for x in zipf_trace(n, 1.1, universe=800, seed=seed):
        sketch.update(x)
    return sketch


class TestRoundTrip:
    @pytest.mark.parametrize("merge", ["sum", "max"])
    def test_cms_roundtrip(self, merge):
        sk = _fill(SalsaCountMin(w=256, d=4, merge=merge, seed=1))
        clone = loads(dumps(sk))
        for x in range(2_000):
            assert clone.query(x) == sk.query(x)

    def test_cus_roundtrip(self):
        sk = _fill(SalsaConservativeUpdate(w=256, d=4, seed=2))
        clone = loads(dumps(sk))
        for x in range(2_000):
            assert clone.query(x) == sk.query(x)

    def test_cs_roundtrip(self):
        sk = _fill(SalsaCountSketch(w=256, d=5, seed=3))
        clone = loads(dumps(sk))
        for x in range(2_000):
            assert clone.query(x) == sk.query(x)

    def test_compact_encoding_roundtrip(self):
        sk = _fill(SalsaCountMin(w=256, d=2, encoding="compact", seed=4))
        clone = loads(dumps(sk))
        assert clone.rows[0].encoding == "compact"
        for x in range(2_000):
            assert clone.query(x) == sk.query(x)

    def test_layouts_preserved(self):
        sk = SalsaCountMin(w=64, d=1, seed=5)
        sk.update(1, 100_000)   # deep merges
        clone = loads(dumps(sk))
        for j in range(64):
            assert clone.rows[0].level_of(j) == sk.rows[0].level_of(j)

    def test_empty_sketch_roundtrip(self):
        sk = SalsaCountMin(w=64, d=4, seed=6)
        clone = loads(dumps(sk))
        assert clone.query(123) == 0

    def test_clone_remains_usable(self):
        """A deserialized sketch keeps counting correctly."""
        sk = SalsaCountMin(w=1 << 12, d=4, seed=7)
        sk.update(9, 10)
        clone = loads(dumps(sk))
        clone.update(9, 5)
        assert clone.query(9) == 15


class TestDistributedMerge:
    def test_merge_after_transport(self):
        """The distributed use-case: sketch on two workers, ship one,
        merge into the other -- estimates cover the union stream."""
        a = _fill(SalsaCountMin(w=256, d=4, seed=8), seed=10)
        b = _fill(SalsaCountMin(w=256, d=4, seed=8), seed=11)
        shipped = loads(dumps(b))
        ops.merge(a, shipped)
        truth = {}
        for seed in (10, 11):
            for x in zipf_trace(5_000, 1.1, universe=800, seed=seed):
                truth[x] = truth.get(x, 0) + 1
        assert all(a.query(x) >= f for x, f in truth.items())

    def test_hash_functions_survive_transport(self):
        a = SalsaCountMin(w=64, d=4, seed=9)
        clone = loads(dumps(a))
        assert clone.hashes.same_functions(a.hashes)


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(ValueError):
            loads(b"NOPE" + bytes(100))

    def test_truncated(self):
        with pytest.raises(ValueError):
            loads(b"SL")

    def test_trailing_garbage(self):
        blob = dumps(SalsaCountMin(w=64, d=1, seed=1))
        with pytest.raises(ValueError):
            loads(blob + b"xx")

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            dumps(object())

    def test_bad_version(self):
        blob = bytearray(dumps(SalsaCountMin(w=64, d=1, seed=1)))
        blob[4] = 99
        with pytest.raises(ValueError):
            loads(bytes(blob))

    def test_unknown_tags_raise_value_error(self):
        """Header byte 16 is the merge tag, byte 17 the encoding tag."""
        blob = bytearray(dumps(SalsaCountMin(w=64, d=1, seed=1)))
        for pos in (16, 17):
            bad = bytearray(blob)
            bad[pos] = 7
            with pytest.raises(ValueError):
                loads(bytes(bad))

    @pytest.mark.parametrize("cls,wrong", [(SalsaConservativeUpdate, 0),
                                           (SalsaCountSketch, 1)])
    def test_merge_tag_must_match_the_sketch_type(self, cls, wrong):
        """CUS rows max-merge and CS rows sum-merge: a blob claiming the
        other rule is corrupt, not a variant."""
        blob = bytearray(dumps(cls(w=64, d=2, seed=1)))
        blob[16] = wrong
        with pytest.raises(ValueError):
            loads(bytes(blob))


#: Size of the fixed blob header (magic .. seed).
HEADER_BYTES = 26

HEADER_SKETCHES = {
    "cms": lambda enc: SalsaCountMin(w=64, d=2, encoding=enc, seed=7),
    "cus": lambda enc: SalsaConservativeUpdate(w=64, d=2, encoding=enc,
                                               seed=7),
    "cs": lambda enc: SalsaCountSketch(w=64, d=2, encoding=enc, seed=7),
}


@pytest.mark.parametrize("encoding", ["simple", "compact"])
@pytest.mark.parametrize("name", sorted(HEADER_SKETCHES))
def test_header_corruption_loads_or_raises_value_error(name, encoding):
    """Every single-byte header corruption either loads or raises
    ``ValueError`` -- never another exception."""
    sk = _fill(HEADER_SKETCHES[name](encoding), n=2_000)
    blob = dumps(sk)
    for pos in range(HEADER_BYTES):
        for value in (0, 1, 2, 3, 7, 9, 255):
            bad = bytearray(blob)
            bad[pos] = value
            try:
                loads(bytes(bad))
            except ValueError:
                pass
