"""Unit and property tests for the bit-packed storage substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from reference_rows import BitArray, Bitmap


class TestBitArrayBasics:
    def test_starts_zeroed(self):
        b = BitArray(64)
        assert b.read(0, 64) == 0

    def test_byte_aligned_roundtrip(self):
        b = BitArray(64)
        b.write(8, 16, 0xBEEF)
        assert b.read(8, 16) == 0xBEEF

    def test_sub_byte_roundtrip(self):
        b = BitArray(8)
        b.write(2, 4, 0b1010)
        assert b.read(2, 4) == 0b1010
        assert b.read(0, 2) == 0
        assert b.read(6, 2) == 0

    def test_straddling_roundtrip(self):
        b = BitArray(24)
        b.write(5, 13, 0x1ABC & 0x1FFF)
        assert b.read(5, 13) == 0x1ABC & 0x1FFF

    def test_little_endian_within_field(self):
        b = BitArray(32)
        b.write(0, 16, 0xBEEF)
        assert b.read(0, 8) == 0xEF
        assert b.read(8, 8) == 0xBE

    def test_write_rejects_oversized_value(self):
        b = BitArray(16)
        with pytest.raises(ValueError):
            b.write(0, 8, 256)

    def test_write_rejects_negative_value(self):
        b = BitArray(16)
        with pytest.raises(ValueError):
            b.write(0, 8, -1)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            BitArray(-1)

    def test_nbytes_rounds_up(self):
        assert BitArray(9).nbytes == 2
        assert BitArray(8).nbytes == 1
        assert BitArray(0).nbytes == 0

    def test_clear(self):
        b = BitArray(32)
        b.write(0, 32, 0xDEADBEEF)
        b.clear()
        assert b.read(0, 32) == 0

    def test_copy_is_independent(self):
        b = BitArray(16)
        b.write(0, 16, 0x1234)
        c = b.copy()
        c.write(0, 16, 0x5678)
        assert b.read(0, 16) == 0x1234
        assert c.read(0, 16) == 0x5678

    def test_equality(self):
        a, b = BitArray(16), BitArray(16)
        assert a == b
        a.write(0, 8, 5)
        assert a != b

    def test_adjacent_fields_do_not_clobber(self):
        b = BitArray(64)
        for i in range(8):
            b.write(i * 8, 8, i + 1)
        for i in range(8):
            assert b.read(i * 8, 8) == i + 1

    def test_wide_field(self):
        b = BitArray(128)
        value = (1 << 100) + 12345
        b.write(0, 128, value)
        assert b.read(0, 128) == value

    def test_tobytes_little_endian(self):
        b = BitArray(16)
        b.write(0, 16, 0x0102)
        assert b.tobytes() == b"\x02\x01"


@settings(max_examples=200)
@given(st.data())
def test_bitarray_random_field_roundtrip(data):
    """Any aligned-to-own-width field roundtrips and neighbours survive."""
    s = data.draw(st.sampled_from([1, 2, 4, 8, 16]))
    n_slots = data.draw(st.integers(min_value=2, max_value=64))
    b = BitArray(s * n_slots)
    # SALSA-style access pattern: fields of width s*2^l at block starts.
    written = {}
    for _ in range(data.draw(st.integers(min_value=1, max_value=20))):
        level = data.draw(st.integers(min_value=0, max_value=3))
        width = s * (1 << level)
        if width > s * n_slots:
            continue
        n_blocks = (s * n_slots) // width
        block = data.draw(st.integers(min_value=0, max_value=n_blocks - 1))
        off = block * width
        value = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        # Drop any previously written overlapping fields from the model.
        written = {
            (o, wd): v for (o, wd), v in written.items()
            if o + wd <= off or o >= off + width
        }
        b.write(off, width, value)
        written[(off, width)] = value
    for (off, width), value in written.items():
        assert b.read(off, width) == value


@settings(max_examples=100)
@given(
    off=st.integers(min_value=0, max_value=120),
    width=st.integers(min_value=1, max_value=64),
    value=st.integers(min_value=0),
)
def test_bitarray_unaligned_roundtrip(off, width, value):
    """Fully general offsets (as Tango uses) roundtrip too."""
    value %= 1 << width
    b = BitArray(256)
    b.write(off, width, value)
    assert b.read(off, width) == value
    # Everything else stayed zero.
    assert b.read(0, off) == 0 if off else True
    tail_off = off + width
    assert b.read(tail_off, 256 - tail_off) == 0


class TestBitmap:
    def test_get_set_clear(self):
        m = Bitmap(16)
        assert not m.get(3)
        m.set(3)
        assert m.get(3)
        m.clear_bit(3)
        assert not m.get(3)

    def test_popcount(self):
        m = Bitmap(100)
        for i in (0, 7, 8, 63, 99):
            m.set(i)
        assert m.popcount() == 5

    def test_clear_all(self):
        m = Bitmap(32)
        for i in range(32):
            m.set(i)
        m.clear()
        assert m.popcount() == 0

    def test_copy_independent(self):
        m = Bitmap(8)
        m.set(1)
        c = m.copy()
        c.set(2)
        assert not m.get(2)
        assert c.get(1)

    def test_iteration(self):
        m = Bitmap(4)
        m.set(2)
        assert list(m) == [False, False, True, False]

    def test_equality(self):
        a, b = Bitmap(8), Bitmap(8)
        assert a == b
        a.set(0)
        assert a != b

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Bitmap(-5)


@settings(max_examples=100)
@given(st.sets(st.integers(min_value=0, max_value=255)))
def test_bitmap_models_a_set(indices):
    m = Bitmap(256)
    for i in indices:
        m.set(i)
    assert {i for i in range(256) if m.get(i)} == indices
    assert m.popcount() == len(indices)
