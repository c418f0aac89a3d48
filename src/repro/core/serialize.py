"""Serialization of SALSA sketches.

The paper's merge/subtract operations (section V) exist so that
sketches built on different cores or machines can be combined; that
requires shipping sketch state around.  This module provides a compact,
versioned binary codec for the SALSA sketches: header, per-row merge
bits (or compact-group words), and the raw counter payload.

The wire format is the **bit-packed reference encoding**, whatever
engine backs the sketch in memory: every engine round-trips through
the common decoded form (live ``(start, level, value)`` counters), so
a blob written by a vector-engine sketch is byte-identical to one
written by a bit-packed sketch in the same state.  Blobs record no
engine; :func:`loads` always rebuilds on vector rows.

The format is deliberately simple -- little-endian fixed header plus
the two buffers each row's reference engine maintains -- so a C
consumer could read it directly.

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

from repro.core.layout import MergeBitLayout
from repro.core.compact import encoding_bits
from repro.core.engines import BitPackedEngine
from repro.core.row import SalsaRow
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


def _empty_reference(row: SalsaRow) -> SalsaRow:
    """An empty bit-packed row of ``row``'s shape (the codec's form)."""
    return SalsaRow(w=row.w, s=row.s, max_bits=row.max_bits, merge=row.merge,
                    signed=row.signed, encoding=row.encoding,
                    engine="bitpacked")


def _reference_row(row: SalsaRow) -> SalsaRow:
    """A bit-packed twin of ``row`` in the same observable state.

    The identity transform for bit-packed rows; other engines export
    their decoded counters into a fresh reference row, which is what
    makes the wire format engine-independent.
    """
    if isinstance(row.engine, BitPackedEngine):
        return row
    ref = _empty_reference(row)
    ref.import_counters(row.counters())
    return ref


def _row_payload(row: SalsaRow) -> bytes:
    """Layout bytes followed by counter bytes for one row."""
    engine = _reference_row(row).engine
    if isinstance(engine.layout, MergeBitLayout):
        layout_bytes = bytes(engine.layout.bits._data)
    else:
        zbits = encoding_bits(engine.layout.group_level)
        zbytes = (zbits + 7) // 8
        layout_bytes = b"".join(
            x.to_bytes(zbytes, "little") for x in engine.layout._x
        )
    return layout_bytes + engine.store.tobytes()


def _restore_row(row: SalsaRow, payload: bytes) -> int:
    """Fill one (empty) row from ``payload``; return bytes consumed.

    The payload decodes into a bit-packed reference row, whose decoded
    counters are then imported into ``row``.
    """
    ref = _empty_reference(row)
    engine = ref.engine
    if isinstance(engine.layout, MergeBitLayout):
        n_layout = engine.layout.bits.nbytes
    else:
        zbytes = (encoding_bits(engine.layout.group_level) + 7) // 8
        n_layout = zbytes * engine.layout.n_groups
    n_store = engine.store.nbytes
    if len(payload) < n_layout + n_store:
        raise ValueError("truncated SALSA sketch blob")
    if isinstance(engine.layout, MergeBitLayout):
        engine.layout.bits._data[:] = payload[:n_layout]
    else:
        engine.layout._x = [
            int.from_bytes(payload[i * zbytes:(i + 1) * zbytes], "little")
            for i in range(engine.layout.n_groups)
        ]
    engine.store._data[:] = payload[n_layout:n_layout + n_store]
    row.import_counters(ref.counters())
    return n_layout + n_store


def serializable(sketch) -> bool:
    """True when :func:`dumps` supports ``sketch``'s exact type.

    The distributed fork-pool ships worker sketches back over this
    codec, so it gates that mode on this predicate.
    """
    return type(sketch) in _TYPES


def dumps(sketch) -> bytes:
    """Serialize a SALSA CMS / CUS / CS sketch to bytes.

    Engine-independent: blobs carry decoded state in the reference
    bit-packed encoding, never the in-memory representation.
    """
    cls = type(sketch)
    if cls not in _TYPES:
        raise TypeError(f"cannot serialize {cls.__name__}")
    row0 = sketch.rows[0]
    header = _HEADER.pack(
        _MAGIC, _VERSION, _TYPES[cls], sketch.w, sketch.d, sketch.s,
        row0.max_bits, _MERGES[row0.merge], _ENCODINGS[row0.encoding],
        sketch.hashes.seed,
    )
    return header + b"".join(_row_payload(row) for row in sketch.rows)


def loads(data: bytes):
    """Reconstruct a sketch serialized by :func:`dumps`, on vector rows.

    The hash family is re-derived from the stored seed, so a round
    trip preserves hash functions (and therefore merge compatibility).
    A malformed blob raises ``ValueError``.
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

    kwargs = dict(w=w, d=d, s=s, max_bits=max_bits, seed=seed,
                  encoding=encoding)
    if cls is SalsaCountMin:
        kwargs["merge"] = merge
    sketch = cls(**kwargs)
    if any(row.merge != merge for row in sketch.rows):
        raise ValueError(
            f"merge tag {merge!r} is invalid for {cls.__name__}")

    offset = _HEADER.size
    for row in sketch.rows:
        consumed = _restore_row(row, data[offset:])
        offset += consumed
    if offset != len(data):
        raise ValueError(
            f"trailing bytes in SALSA blob: expected {offset}, "
            f"got {len(data)}"
        )
    return sketch
