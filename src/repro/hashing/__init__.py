"""Hashing substrate shared by every sketch in the library.

The paper's implementations all use BobHash (Bob Jenkins' lookup3) with
per-row seeds, plus an extra pairwise-independent sign hash for Count
Sketch.  We provide:

* :func:`bobhash` -- a faithful lookup3 ``hashlittle`` over bytes; it
  hashes every ``bytes`` key.
* :func:`mix64` -- the splitmix64 finalizer; it hashes every integer
  key, per item and (as :func:`mix64_many`, or natively as
  :func:`mix64_keyed`) per batch.
* :class:`HashFamily` -- d seeded hash functions producing row indices
  in ``[0, w)`` (w a power of two, as in the paper's implementation)
  and +/-1 signs; the key's type alone picks BobHash or the mixer.
* :class:`TabulationHash` / :class:`TabulationFamily` -- provably
  3-independent simple tabulation, the hash ablation's reference point.

Every structure is deterministic given its seed, so experiments are
reproducible bit-for-bit.
"""

from repro.hashing.bobhash import bobhash
from repro.hashing.family import HashFamily, mix64, mix64_keyed, mix64_many
from repro.hashing.tabulation import TabulationFamily, TabulationHash

__all__ = [
    "bobhash",
    "mix64",
    "mix64_many",
    "mix64_keyed",
    "HashFamily",
    "TabulationHash",
    "TabulationFamily",
]
