"""Answer checks and error metrics.

:func:`check_answers` returns the number of wrong final answers, which
the benchmark counts as failed operations.  The bounds rest on the
paper's theorems, not on the program's own code: the SALSA row hash is
recomputed here from the sketch's public seeds.
"""

from __future__ import annotations

import numpy as np

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array (wrapping)."""
    x = x ^ (x >> np.uint64(30))
    x = x * _M1
    x = x ^ (x >> np.uint64(27))
    x = x * _M2
    return x ^ (x >> np.uint64(31))


def coarse_cms_bound(keys: np.ndarray, counts: np.ndarray, seeds,
                     w: int, level: int) -> np.ndarray:
    """Estimates of the fixed-width CMS whose counters each span
    ``2^level`` base slots, over the exact counts of ``keys``.

    Every SALSA counter at merge level ``<= level`` sits inside one such
    coarse counter and holds at most the sum of the frequencies mapped
    into it, whether it merges by sum or max, and conservative update
    only lowers counters, so this bounds SALSA CMS and CUS estimates
    from above (Thms V.1-V.3).
    """
    bound = None
    ukeys = keys.view(np.uint64)
    for seed in seeds:
        bucket = ((_splitmix(ukeys ^ np.uint64(seed)) & np.uint64(w - 1))
                  >> np.uint64(level)).astype(np.int64)
        # float64 bucket sums are exact below 2^53 arrivals.
        sums = np.bincount(bucket, weights=counts, minlength=w >> level)
        row = sums[bucket].astype(np.int64)
        bound = row if bound is None else np.minimum(bound, row)
    return bound


def aae(est: np.ndarray, counts: np.ndarray) -> float:
    """Average absolute error over the distinct keys."""
    return float(np.mean(np.abs(est - counts)))


def are(est: np.ndarray, counts: np.ndarray) -> float:
    """Average relative error over the distinct keys."""
    return float(np.mean(np.abs(est - counts) / counts))


def present_level(sketch) -> int:
    """Largest merge level present in any row of ``sketch``."""
    return max(level for row in sketch.rows
               for _start, level, _value in row.counters())


def check_answers(answers: np.ndarray, keys: np.ndarray, counts: np.ndarray,
                  sketch, expected: np.ndarray | None) -> int:
    """Wrong final answers: those differing from ``expected`` when a
    reference computation gave it, else those outside the theorems'
    bounds for ``sketch``."""
    if expected is not None:
        return int(np.count_nonzero(answers != expected))
    bound = coarse_cms_bound(keys, counts, sketch.hashes.seeds, sketch.w,
                             present_level(sketch))
    return int(np.count_nonzero((answers < counts) | (answers > bound)))
