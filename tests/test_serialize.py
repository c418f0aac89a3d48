"""Tests for SALSA sketch serialization."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    SalsaConservativeUpdate,
    SalsaCountMin,
    SalsaCountSketch,
    ops,
)
from repro.core.compact import encoding_bits
from repro.core.serialize import dumps, loads
from repro.streams import zipf_trace

from reference_rows import build, payload


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


def _assert_loads_canonically_or_raises(blob: bytes) -> None:
    """``loads`` is a bijection onto what ``dumps`` writes: a blob
    either raises ``ValueError`` or is exactly the dump of its load."""
    try:
        clone = loads(blob)
    except ValueError:
        return
    assert dumps(clone) == blob


@pytest.mark.parametrize("encoding", ["simple", "compact"])
@pytest.mark.parametrize("name", sorted(HEADER_SKETCHES))
def test_payload_corruption_loads_canonically_or_raises(name, encoding):
    """Every single-byte corruption of the row payload (each bit flip,
    0x00 and 0xFF) and every truncation either raises ``ValueError`` or
    round-trips byte for byte -- no other exception, no silent rewrite."""
    sk = _fill(HEADER_SKETCHES[name](encoding), n=2_000)
    sk.update(3, 100_000)   # deep merges
    blob = dumps(sk)
    for pos in range(HEADER_BYTES, len(blob)):
        for value in {blob[pos] ^ (1 << k) for k in range(8)} | {0, 255}:
            bad = bytearray(blob)
            bad[pos] = value
            _assert_loads_canonically_or_raises(bytes(bad))
    for size in range(len(blob)):
        with pytest.raises(ValueError):
            loads(blob[:size])


class TestCanonicalPayload:
    """Layout and counter bytes no ``dumps`` writes are rejected."""

    @pytest.mark.parametrize("bits", [0b011, 0b010, 0b110])
    def test_non_canonical_merge_bits_raise(self, bits):
        """0b011 would load as one level-2 counter over slots 0-3 (and
        re-dump as 0b111); 0b010 would load all level-0 and lose the bit."""
        blob = bytearray(dumps(SalsaCountMin(w=64, d=1, seed=1)))
        blob[HEADER_BYTES] = bits
        with pytest.raises(ValueError, match="non-canonical"):
            loads(bytes(blob))

    def test_canonical_merge_bits_load(self):
        blob = bytearray(dumps(SalsaCountMin(w=64, d=1, seed=1)))
        blob[HEADER_BYTES] = 0b111
        clone = loads(bytes(blob))
        assert [clone.rows[0].level_of(j) for j in range(5)] == [2] * 4 + [0]

    def test_out_of_range_group_number_raises(self):
        """2^19 - 1 exceeds a_5 - 1 = 458329: no layout has it."""
        blob = bytearray(dumps(SalsaCountMin(w=64, d=1, seed=1,
                                             encoding="compact")))
        pos = HEADER_BYTES
        blob[pos:pos + 3] = ((1 << 19) - 1).to_bytes(3, "little")
        with pytest.raises(ValueError, match="non-canonical"):
            loads(bytes(blob))

    def test_group_number_above_max_level_raises(self):
        """a_5 - 1 encodes one 32-slot counter, but s=8 rows stop at
        level 3."""
        blob = bytearray(dumps(SalsaCountMin(w=64, d=1, seed=1,
                                             encoding="compact")))
        pos = HEADER_BYTES
        blob[pos:pos + 3] = (458329).to_bytes(3, "little")
        with pytest.raises(ValueError, match="non-canonical"):
            loads(bytes(blob))

    def test_sign_magnitude_negative_zero_raises(self):
        blob = bytearray(dumps(SalsaCountSketch(w=64, d=1, seed=1)))
        blob[HEADER_BYTES + 64 // 8] = 0x80   # slot 0: -0
        with pytest.raises(ValueError, match="non-canonical"):
            loads(bytes(blob))

    def test_padding_bits_raise(self):
        """A w=4 row's merge bits fill half a byte; the rest is padding."""
        blob = bytearray(dumps(SalsaCountMin(w=4, d=1, seed=1)))
        blob[HEADER_BYTES] = 0x80
        with pytest.raises(ValueError, match="non-canonical"):
            loads(bytes(blob))

    def test_wide_max_bits_header_raises(self):
        """A header whose max_bits reads above 64 asks for counters a
        vector row cannot hold."""
        blob = bytearray(dumps(SalsaCountMin(w=64, d=1, seed=1)))
        blob[14:16] = (128).to_bytes(2, "little")   # max_bits field
        with pytest.raises(ValueError, match="64-bit"):
            loads(bytes(blob))


# ----------------------------------------------------------------------
# property: the vector codec is the bit-packed encoding, exactly
# ----------------------------------------------------------------------
SKETCH_KINDS = ("cms-sum", "cms-max", "cus", "cs")


def _make(kind, engine, **shape):
    if kind.startswith("cms"):
        return build(SalsaCountMin, engine, merge=kind[4:], **shape)
    cls = SalsaConservativeUpdate if kind == "cus" else SalsaCountSketch
    return build(cls, engine, **shape)


def _reference_decode(blob, kind, shape):
    """Per-row ``counters()`` of bit-packed rows whose buffers are
    filled straight from ``blob``'s row payloads."""
    ref = _make(kind, "bitpacked", **shape)
    offset = HEADER_BYTES
    decoded = []
    for row in ref.rows:
        layout, store = row.layout, row.store
        if shape["encoding"] == "simple":
            size = layout.bits.nbytes
            layout.bits._data[:] = blob[offset:offset + size]
        else:
            zbytes = (encoding_bits(layout.group_level) + 7) // 8
            size = zbytes * layout.n_groups
            layout._x = [
                int.from_bytes(blob[pos:pos + zbytes], "little")
                for pos in range(offset, offset + size, zbytes)
            ]
        offset += size
        store._data[:] = blob[offset:offset + store.nbytes]
        offset += store.nbytes
        decoded.append(list(row.counters()))
    assert offset == len(blob)
    return decoded


def _assert_codec_exact(kind, shape, stream):
    ref = _make(kind, "bitpacked", **shape)
    vec = _make(kind, "vector", **shape)
    for key, weight in stream:
        ref.update(key, weight)
        vec.update(key, weight)
    blob = dumps(vec)
    assert blob[HEADER_BYTES:] == b"".join(payload(r) for r in ref.rows)
    clone = loads(blob)
    expected = _reference_decode(blob, kind, shape)
    for row, orig, counters in zip(clone.rows, vec.rows, expected):
        for name in ("levels", "values"):
            np.testing.assert_array_equal(getattr(row, name),
                                          getattr(orig, name))
        assert list(row.counters()) == counters


#: Weights that force merges and saturations at every base width.
CODEC_WEIGHTS = [1, 3, 255, 70_000, 1 << 31, 1 << 62, (1 << 63) - 1]


@st.composite
def codec_cases(draw):
    kind = draw(st.sampled_from(SKETCH_KINDS))
    shape = dict(
        w=draw(st.sampled_from([2, 4, 16, 64])), d=2,
        s=draw(st.sampled_from([2, 4, 8, 16, 32, 64])),
        encoding=draw(st.sampled_from(["simple", "compact"])), seed=3,
    )
    sign = st.sampled_from([1, -1]) if kind == "cs" else st.just(1)
    stream = draw(st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from(CODEC_WEIGHTS), sign),
        max_size=40))
    return kind, shape, [(key, w * sg) for key, w, sg in stream]


@settings(max_examples=150, deadline=None)
@given(codec_cases())
def test_vector_codec_matches_bitpacked_reference(case):
    """``dumps`` writes, row by row, the buffers of bit-packed reference
    rows in the same state; ``loads`` restores the arrays exactly and
    agrees with a reference decode of the bit-packed buffers."""
    _assert_codec_exact(*case)


@pytest.mark.parametrize("encoding", ["simple", "compact"])
@pytest.mark.parametrize("s", [8, 64])
def test_codec_extremes(s, encoding):
    """A saturated unsigned counter at 2^64 - 1 and CS counters at both
    signs' limits survive the codec."""
    shape = dict(w=16, d=2, s=s, encoding=encoding, seed=1)
    _assert_codec_exact("cms-sum", shape, [(1, (1 << 63) - 1)] * 3)
    vec = _make("cms-sum", "vector", **shape)
    for _ in range(3):
        vec.update(1, (1 << 63) - 1)
    assert vec.query(1) == (1 << 64) - 1
    _assert_codec_exact("cs", shape,
                        [(1, -((1 << 63) - 1)), (2, (1 << 63) - 1), (4, -5)])
