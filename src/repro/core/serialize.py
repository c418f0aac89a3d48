"""Serialization of SALSA sketches.

The paper's merge/subtract operations (section V) exist so that
sketches built on different cores or machines can be combined; that
requires shipping sketch state around.  This module provides a compact,
versioned binary codec for the SALSA sketches: header, per-row merge
bits (or compact-group words), and the raw counter payload.

The wire format is the paper's **bit-packed encoding** of each row:
the layout (one merge bit per slot, or one Appendix-A group number per
``2^m`` slots) followed by the ``w * s``-bit counter store, with
Count-Sketch fields in sign-magnitude.  A row's ``levels``/``values``
arrays encode to those bytes with array operations (the test suite
checks them against a bit-packed reference row, buffer for buffer), so
a blob records the counters and merge levels, never the in-memory
representation.  :func:`loads` decodes a payload straight into a row's
arrays and accepts only bytes :func:`dumps` could have written: every
decoded row is re-encoded and compared with its payload.

The format is deliberately simple -- little-endian fixed header plus
the two buffers of each row's bit-packed encoding -- so a C consumer
could read it directly.

Examples
--------
>>> from repro.core import SalsaCountMin
>>> from repro.core.serialize import dumps, loads
>>> sk = SalsaCountMin(w=64, d=2, seed=3)
>>> sk.update(7, 1000)
>>> clone = loads(dumps(sk))
>>> clone.query(7) == sk.query(7)
True
"""

from __future__ import annotations

import struct

import numpy as np

from repro.core.compact import (
    default_group_level,
    encoding_bits,
    layout_count,
)
from repro.core.row import SIMPLE, SalsaRow
from repro.core.salsa_cms import SalsaCountMin
from repro.core.salsa_cus import SalsaConservativeUpdate
from repro.core.salsa_cs import SalsaCountSketch

_MAGIC = b"SLSA"
_VERSION = 1

#: sketch-type tags
_TYPES = {
    SalsaCountMin: 1,
    SalsaConservativeUpdate: 2,
    SalsaCountSketch: 3,
}
_TYPE_CLASSES = {v: k for k, v in _TYPES.items()}

_MERGES = {"sum": 0, "max": 1}
_MERGE_NAMES = {v: k for k, v in _MERGES.items()}

_ENCODINGS = {"simple": 0, "compact": 1}
_ENCODING_NAMES = {v: k for k, v in _ENCODINGS.items()}

# header: magic, version, type, w, d, s, max_bits, merge, encoding, seed
_HEADER = struct.Struct("<4sBBIHHHBBq")

#: Counter widths whose chunks are whole NumPy words; any other width
#: (a row that never merges may take any) goes bit by bit.
_WORD_BITS = (8, 16, 32, 64)


def _group_bytes(group_level: int) -> int:
    """Bytes per Appendix-A group number on the wire."""
    return (encoding_bits(group_level) + 7) // 8


def _layout_nbytes(row) -> int:
    """Size of one row's layout bytes."""
    if row.encoding == SIMPLE:
        return (row.w + 7) // 8
    group_level = default_group_level(row.w, row.max_level)
    return (row.w >> group_level) * _group_bytes(group_level)


def _payload_nbytes(row) -> int:
    """Size of one row's payload: layout bytes, then counter bytes."""
    return _layout_nbytes(row) + (row.w * row.s + 7) // 8


# ----------------------------------------------------------------------
# encode
# ----------------------------------------------------------------------
def _encode_groups(levels: np.ndarray, group_level: int) -> np.ndarray:
    """Appendix-A group numbers, built bottom-up over whole arrays.

    ``x`` holds ``X_n`` of every aligned ``2^n`` block: a block inside
    one counter of level ``>= n`` is ``a_n - 1``, any other is its two
    halves' numbers in base ``a_{n-1}``.  Returns the little-endian
    wire bytes as a ``(groups, bytes)`` uint8 array.
    """
    # Counters stop at 64 bits, so group_level <= 5 and every
    # X_n < a_5 = 458330 fits int64.
    x = np.zeros(levels.size, dtype=np.int64)
    for n in range(1, group_level + 1):
        x = x[0::2] * layout_count(n - 1) + x[1::2]
        x[levels[::1 << n] >= n] = layout_count(n) - 1
    wire = x.astype("<u8").view(np.uint8).reshape(-1, 8)
    return wire[:, :_group_bytes(group_level)]


def _encode_store(row: SalsaRow, off: np.ndarray) -> np.ndarray:
    """The ``w * s``-bit counter store: slot ``j`` holds the ``s``-bit
    chunk at offset ``off[j]`` of its counter's field."""
    s = row.s
    raw = row.values
    if row.signed:
        top = ((s << row.levels) - 1).astype(np.uint64)
        sign = (raw < 0).astype(np.uint64) << top
        raw = np.abs(raw).astype(np.uint64) | sign
    chunks = ((raw >> (off * s).astype(np.uint64))
              & np.uint64((1 << s) - 1))
    if s in _WORD_BITS:
        return chunks.astype(f"<u{s // 8}")
    bits = (chunks[:, None] >> np.arange(s, dtype=np.uint64)) & np.uint64(1)
    return np.packbits(bits.astype(np.uint8), axis=None, bitorder="little")


def _payload(row: SalsaRow) -> bytes:
    """One row's wire bytes: its layout, then its counter store."""
    levels = row.levels
    # Offset of each slot inside its counter's aligned block.
    off = np.arange(row.w, dtype=np.int64) & ((1 << levels) - 1)
    if row.encoding == SIMPLE:
        # A level-L block sets the merge bits of all but its last slot.
        layout = np.packbits(off < (1 << levels) - 1, bitorder="little")
    else:
        layout = _encode_groups(
            levels, default_group_level(row.w, row.max_level))
    return layout.tobytes() + _encode_store(row, off).tobytes()


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------
def _decode_merge_bits(layout: np.ndarray, w: int,
                       max_level: int) -> np.ndarray:
    """Per-slot levels from merge bits: ``max_level`` probes, each over
    the whole row.

    Slot ``j`` takes the highest ``L`` whose probe bit
    ``(j >> L << L) + 2^(L-1) - 1`` is set.  On merge bits ``dumps``
    writes that is the reference decode; on any other bits it is still
    a layout of aligned blocks, which the caller's re-encode check then
    rejects.
    """
    bits = np.unpackbits(layout, count=w, bitorder="little").astype(bool)
    slots = np.arange(w, dtype=np.int64)
    levels = np.zeros(w, dtype=np.int64)
    for lv in range(1, max_level + 1):
        levels[bits[((slots >> lv) << lv) + (1 << (lv - 1)) - 1]] = lv
    return levels


def _decode_groups(layout: np.ndarray, w: int, max_level: int) -> np.ndarray:
    """Per-slot levels from Appendix-A group numbers, top-down.

    A block whose number is ``a_n - 1`` is one level-``n`` counter
    (only for ``n <= max_level``); its slots keep the coarsest such
    level.  Any other number splits into its base-``a_{n-1}`` digits.
    Numbers no layout encodes decode to *some* layout, which the
    caller's re-encode check then rejects.
    """
    group_level = default_group_level(w, max_level)
    zbytes = _group_bytes(group_level)
    wire = layout.reshape(-1, zbytes).astype(np.int64)
    x = (wire << (8 * np.arange(zbytes, dtype=np.int64))).sum(axis=1)
    levels = np.zeros(w, dtype=np.int64)
    for n in range(group_level, 0, -1):
        if n <= max_level:
            full = x == layout_count(n) - 1
            levels = np.maximum(levels, np.repeat(full * n, 1 << n))
        x = np.stack(np.divmod(x, layout_count(n - 1)), axis=1).ravel()
    return levels


def _decode_store(store: np.ndarray, w: int, s: int) -> np.ndarray:
    """The ``s``-bit chunk of every slot, as uint64."""
    if s in _WORD_BITS:
        return store.view(f"<u{s // 8}").astype(np.uint64)
    bits = np.unpackbits(store, count=w * s, bitorder="little")
    bits = bits.reshape(w, s).astype(np.uint64)
    return (bits << np.arange(s, dtype=np.uint64)).sum(axis=1,
                                                       dtype=np.uint64)


def _restore_row(row: SalsaRow, payload: bytes) -> None:
    """Decode one row's payload into a fresh row's arrays.

    Raises ``ValueError`` unless re-encoding the decoded row gives
    ``payload`` back, so non-canonical merge bits, group numbers no
    layout has, a sign-magnitude ``-0`` and set padding bits are all
    rejected rather than silently rewritten.
    """
    w, s = row.w, row.s
    n_layout = _layout_nbytes(row)
    raw_bytes = np.frombuffer(payload, dtype=np.uint8)
    if row.encoding == SIMPLE:
        levels = _decode_merge_bits(raw_bytes[:n_layout], w, row.max_level)
    else:
        levels = _decode_groups(raw_bytes[:n_layout], w, row.max_level)
    off = np.arange(w, dtype=np.int64) & ((1 << levels) - 1)
    chunks = _decode_store(raw_bytes[n_layout:], w, s)
    heads = np.flatnonzero(off == 0)
    head_levels = levels[heads]
    # Each counter's field is the OR of its slots' shifted chunks.
    raw = np.bitwise_or.reduceat(chunks << (off * s).astype(np.uint64),
                                 heads)
    if row.signed:
        top = ((s << head_levels) - 1).astype(np.uint64)
        magnitude = (raw & ((np.uint64(1) << top) - np.uint64(1))
                     ).astype(np.int64)
        raw = np.where((raw >> top).astype(bool), -magnitude, magnitude)
    row.levels[:] = levels
    row.values[:] = np.repeat(raw, 1 << head_levels)
    if _payload(row) != payload:
        raise ValueError(
            "non-canonical SALSA row payload (no dumps writes these bytes)")


def shippable(sketch) -> bool:
    """Whether :func:`dumps` can serialize ``sketch``: its exact type
    is in the codec's type table (a subclass such as the fixed-width
    ``CountMinSketch`` is not)."""
    return type(sketch) in _TYPES


def dumps(sketch) -> bytes:
    """Serialize a SALSA CMS / CUS / CS sketch to bytes: the paper's
    bit-packed encoding of each row, never its in-memory arrays."""
    cls = type(sketch)
    if not shippable(sketch):
        raise TypeError(f"cannot serialize {cls.__name__}")
    row0 = sketch.rows[0]
    header = _HEADER.pack(
        _MAGIC, _VERSION, _TYPES[cls], sketch.w, sketch.d, sketch.s,
        row0.max_bits, _MERGES[row0.merge], _ENCODINGS[row0.encoding],
        sketch.hashes.seed,
    )
    return header + b"".join(_payload(row) for row in sketch.rows)


def loads(data: bytes):
    """Reconstruct a sketch serialized by :func:`dumps`.

    The hash family is re-derived from the stored seed, so a round
    trip preserves hash functions (and therefore merge compatibility).
    A malformed blob -- including any payload :func:`dumps` could not
    have written, or counters wider than a row holds -- raises
    ``ValueError``.
    """
    if len(data) < _HEADER.size:
        raise ValueError("truncated SALSA sketch blob")
    (magic, version, type_tag, w, d, s, max_bits,
     merge_tag, encoding_tag, seed) = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("not a SALSA sketch blob (bad magic)")
    if version != _VERSION:
        raise ValueError(f"unsupported SALSA blob version {version}")
    cls = _TYPE_CLASSES.get(type_tag)
    if cls is None:
        raise ValueError(f"unknown sketch type tag {type_tag}")

    encoding = _ENCODING_NAMES.get(encoding_tag)
    if encoding is None:
        raise ValueError(f"unknown encoding tag {encoding_tag}")
    merge = _MERGE_NAMES.get(merge_tag)
    if merge is None:
        raise ValueError(f"unknown merge tag {merge_tag}")
    # Every row stores at least its w*s counter bits: reject a header
    # promising more than the blob holds before allocating any rows.
    if d * ((w * s + 7) // 8) > len(data) - _HEADER.size:
        raise ValueError("truncated SALSA sketch blob")

    kwargs = dict(w=w, d=d, s=s, max_bits=max_bits, seed=seed,
                  encoding=encoding)
    if cls is SalsaCountMin:
        kwargs["merge"] = merge
    sketch = cls(**kwargs)
    if any(row.merge != merge for row in sketch.rows):
        raise ValueError(
            f"merge tag {merge!r} is invalid for {cls.__name__}")

    row_bytes = _payload_nbytes(sketch.rows[0])
    expected = _HEADER.size + d * row_bytes
    if len(data) < expected:
        raise ValueError("truncated SALSA sketch blob")
    if len(data) > expected:
        raise ValueError(
            f"trailing bytes in SALSA blob: expected {expected}, "
            f"got {len(data)}"
        )
    offset = _HEADER.size
    for row in sketch.rows:
        _restore_row(row, data[offset:offset + row_bytes])
        offset += row_bytes
    return sketch
