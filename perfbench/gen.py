"""Seeded input generator for the benchmark (NumPy only).

The benchmark makes its own inputs so that no change to the program can
shift the workload: nothing here imports ``repro``.  Every stream is a
list of int64 key chunks of :data:`CHUNK` keys, a pure function of the
seed.
"""

from __future__ import annotations

import numpy as np

#: Keys per chunk handed to the program.
CHUNK = 8192
#: Chunks per stream (>= 100, so a p90 over chunk steps has >= 10
#: samples beyond it).
CHUNKS = 128
#: Zipf universe size (ranks 1..UNIVERSE).
UNIVERSE = 1 << 20
#: churn: heavy keys that share half the arrivals, replaced together
#: every ``CHURN_EPOCH`` arrivals.
CHURN_HEAVY = 8
CHURN_EPOCH = 16384

_KEY_BITS = 62


def _rank_to_key(rng: np.random.Generator):
    """A seeded bijection from ranks onto 62-bit keys (odd-multiplier
    affine map mod 2^62), so keys are distinct and spread out."""
    mult = int(rng.integers(1 << 40, 1 << 61)) | 1
    add = int(rng.integers(0, 1 << _KEY_BITS))
    mask = (1 << _KEY_BITS) - 1

    def keys(ranks: np.ndarray) -> np.ndarray:
        # uint64 arithmetic wraps mod 2^64; the mask then reduces mod 2^62.
        u = ranks.astype(np.uint64) * np.uint64(mult) + np.uint64(add)
        return (u & np.uint64(mask)).astype(np.int64)

    return keys


def zipf_ranks(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` i.i.d. Zipf(1.0) ranks in ``[0, UNIVERSE)`` by inverse-CDF
    sampling (NumPy's own sampler needs an exponent above 1)."""
    cdf = np.cumsum(1.0 / np.arange(1, UNIVERSE + 1, dtype=np.float64))
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(n), side="right")
    return np.minimum(ranks, UNIVERSE - 1)


def stationary(seed: int, chunks: int = CHUNKS,
               chunk: int = CHUNK) -> list[np.ndarray]:
    """I.i.d. Zipf(1.0) keys."""
    rng = np.random.default_rng([seed, 1])
    keys = _rank_to_key(rng)(zipf_ranks(rng, chunks * chunk))
    return np.split(keys, chunks)


def churn(seed: int, chunks: int = CHUNKS,
          chunk: int = CHUNK) -> list[np.ndarray]:
    """Zipf(1.0) background; each arrival is, with probability 1/2, one
    of :data:`CHURN_HEAVY` heavy keys, and the whole heavy set is
    replaced by fresh keys every :data:`CHURN_EPOCH` arrivals."""
    rng = np.random.default_rng([seed, 2])
    n = chunks * chunk
    to_key = _rank_to_key(rng)
    keys = to_key(zipf_ranks(rng, n))
    heavy = rng.random(n) < 0.5
    epoch = np.arange(n) // CHURN_EPOCH
    slot = rng.integers(0, CHURN_HEAVY, size=n)
    # Heavy ranks lie past the Zipf universe, so they never collide
    # with background keys or with another epoch's heavy set.
    heavy_rank = UNIVERSE + epoch * CHURN_HEAVY + slot
    keys[heavy] = to_key(heavy_rank[heavy])
    return np.split(keys, chunks)


#: workload name -> stream generator
STREAMS = {
    "stationary": stationary,
    "churn": churn,
    "sharded": stationary,
    "cus": stationary,
}


def exact_counts(chunks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys of a stream (sorted) and their exact counts."""
    return np.unique(np.concatenate(chunks), return_counts=True)
