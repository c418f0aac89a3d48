"""BobHash: Bob Jenkins' lookup3 ``hashlittle``.

This is the hash the SALSA authors (and the Pyramid/ABC/AEE codebases
they compare against) use.  We implement the 32-bit ``hashlittle``
variant over byte strings, processing 12-byte blocks with the
``mix``/``final`` rounds from lookup3.c.

:class:`repro.hashing.HashFamily` hashes every ``bytes`` key with it
(two seeded 32-bit halves make one 64-bit row hash).  Integer keys go
through the much faster splitmix64 mixer in :mod:`repro.hashing.family`
instead; both pass the same uniformity checks in
``tests/test_hashing.py``.
"""

from __future__ import annotations

_MASK32 = 0xFFFFFFFF


def _rot(x: int, k: int) -> int:
    """32-bit rotate left."""
    x &= _MASK32
    return ((x << k) | (x >> (32 - k))) & _MASK32


def _mix(a: int, b: int, c: int) -> tuple[int, int, int]:
    """lookup3 mix(): reversible mixing of three 32-bit words."""
    a = (a - c) & _MASK32; a ^= _rot(c, 4); c = (c + b) & _MASK32
    b = (b - a) & _MASK32; b ^= _rot(a, 6); a = (a + c) & _MASK32
    c = (c - b) & _MASK32; c ^= _rot(b, 8); b = (b + a) & _MASK32
    a = (a - c) & _MASK32; a ^= _rot(c, 16); c = (c + b) & _MASK32
    b = (b - a) & _MASK32; b ^= _rot(a, 19); a = (a + c) & _MASK32
    c = (c - b) & _MASK32; c ^= _rot(b, 4); b = (b + a) & _MASK32
    return a, b, c


def _final(a: int, b: int, c: int) -> int:
    """lookup3 final(): irreversible final mixing; returns c."""
    c ^= b; c = (c - _rot(b, 14)) & _MASK32
    a ^= c; a = (a - _rot(c, 11)) & _MASK32
    b ^= a; b = (b - _rot(a, 25)) & _MASK32
    c ^= b; c = (c - _rot(b, 16)) & _MASK32
    a ^= c; a = (a - _rot(c, 4)) & _MASK32
    b ^= a; b = (b - _rot(a, 14)) & _MASK32
    c ^= b; c = (c - _rot(b, 24)) & _MASK32
    return c & _MASK32


def bobhash(key: bytes, seed: int = 0) -> int:
    """Return the 32-bit lookup3 ``hashlittle`` of ``key``.

    Parameters
    ----------
    key:
        The bytes to hash.
    seed:
        32-bit initial value ("initval" in lookup3.c); different seeds
        yield independent-looking hash functions.
    """
    length = len(key)
    a = b = c = (0xDEADBEEF + length + (seed & _MASK32)) & _MASK32

    offset = 0
    remaining = length
    while remaining > 12:
        a = (a + int.from_bytes(key[offset:offset + 4], "little")) & _MASK32
        b = (b + int.from_bytes(key[offset + 4:offset + 8], "little")) & _MASK32
        c = (c + int.from_bytes(key[offset + 8:offset + 12], "little")) & _MASK32
        a, b, c = _mix(a, b, c)
        offset += 12
        remaining -= 12

    if remaining == 0:
        # lookup3 returns c unmixed for zero-length tails.
        return c
    tail = key[offset:]
    a = (a + int.from_bytes(tail[0:4], "little")) & _MASK32
    if remaining > 4:
        b = (b + int.from_bytes(tail[4:8], "little")) & _MASK32
    if remaining > 8:
        c = (c + int.from_bytes(tail[8:12], "little")) & _MASK32
    return _final(a, b, c)
