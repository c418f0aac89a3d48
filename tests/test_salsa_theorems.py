"""Property tests for the paper's accuracy theorems (section V).

Theorems V.1-V.3 bound SALSA's estimates by those of the *underlying*
sketch: a vanilla sketch with ``(2^l * s)``-bit counters and hashes
``h~_i(x) = floor(h_i(x) / 2^l)``, where ``2^l * s`` is the largest
counter size SALSA reached.  We compute the underlying sketch's
counters exactly from the ground truth (every update lands in coarse
bucket ``h_i(x) >> l``), which is a reference implementation rather
than a re-derivation, so the comparison is airtight.

Lemmas V.4/V.6 (unbiasedness and variance dominance of SALSA CS) are
checked statistically over repeated seeds.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    SalsaConservativeUpdate,
    SalsaCountMin,
    SalsaCountSketch,
    TangoCountMin,
)
from repro.hashing import HashFamily, mix64
from repro.sketches import ConservativeUpdateSketch, CountSketch
from repro.streams import zipf_trace


def _underlying_cms_estimate(truth, hashes, w, level, item):
    """Exact estimate of the underlying CMS with 2^level-coarse buckets."""
    mask = w - 1
    best = None
    for seed in hashes.seeds[:hashes.d]:
        bucket = (mix64(item ^ seed) & mask) >> level
        load = sum(
            f for y, f in truth.items()
            if (mix64(y ^ seed) & mask) >> level == bucket
        )
        if best is None or load < best:
            best = load
    return best


@pytest.mark.parametrize("merge", ["sum", "max"])
def test_theorem_v1_v2_sandwich(merge):
    """f_x <= Tango <= SALSA <= underlying CMS (Thms V.1 and V.2)."""
    fam = HashFamily(4, seed=11)
    w = 64
    salsa = SalsaCountMin(w=w, d=4, s=4, merge=merge, hash_family=fam)
    tango = TangoCountMin(w=w, d=4, s=4, merge=merge, hash_family=fam)
    truth = {}
    for x in zipf_trace(8_000, 1.1, universe=600, seed=11):
        salsa.update(x)
        tango.update(x)
        truth[x] = truth.get(x, 0) + 1
    level = max(row.level_of(j) for row in salsa.rows
                for j in range(w))
    checked = 0
    for x, f in list(truth.items())[:120]:
        underlying = _underlying_cms_estimate(truth, fam, w, level, x)
        assert f <= tango.query(x) <= salsa.query(x) <= underlying
        checked += 1
    assert checked > 0
    assert level >= 1  # the stream must actually trigger merges


def test_theorem_v3_cus_dominance():
    """f_x <= SALSA CUS <= underlying CUS (Thm V.3).

    The underlying CUS is simulated exactly: a real fixed-width CUS
    over the coarse hash h~(x) = h(x) >> l, replayed on the same
    stream.
    """
    fam = HashFamily(4, seed=13)
    w = 64
    salsa = SalsaConservativeUpdate(w=w, d=4, s=4, hash_family=fam)
    stream = list(zipf_trace(8_000, 1.1, universe=600, seed=13))
    for x in stream:
        salsa.update(x)
    level = max(row.level_of(j) for row in salsa.rows
                for j in range(w))
    assert level >= 1

    # Reference: vanilla CUS over w >> level coarse buckets.
    coarse = [[0] * (w >> level) for _ in range(4)]
    truth = {}
    for x in stream:
        idxs = [(mix64(x ^ seed) & (w - 1)) >> level for seed in fam.seeds]
        est = min(coarse[i][idx] for i, idx in enumerate(idxs))
        for i, idx in enumerate(idxs):
            if coarse[i][idx] < est + 1:
                coarse[i][idx] = est + 1
        truth[x] = truth.get(x, 0) + 1

    for x, f in truth.items():
        idxs = [(mix64(x ^ seed) & (w - 1)) >> level for seed in fam.seeds]
        underlying = min(coarse[i][idx] for i, idx in enumerate(idxs))
        assert f <= salsa.query(x) <= underlying


def test_lemma_v4_unbiasedness():
    """E[f̂_x] = f_x for SALSA CS: averaged over seeds, the estimate of
    a fixed item converges to its true frequency."""
    target, target_freq = 999_983, 64
    estimates = []
    for seed in range(40):
        sk = SalsaCountSketch(w=32, d=1, s=8, seed=seed)
        rng = random.Random(seed)
        for _ in range(600):
            sk.update(rng.randrange(500))
        sk.update(target, target_freq)
        estimates.append(sk.row_estimate(target, 0) - target_freq)
    mean_err = sum(estimates) / len(estimates)
    spread = (sum(e * e for e in estimates) / len(estimates)) ** 0.5
    # Mean error within 2 standard errors of zero.
    assert abs(mean_err) <= 2 * spread / (len(estimates) ** 0.5) + 1e-9


def test_theorem_v6_variance_dominance():
    """Var[SALSA CS row] <= Var[underlying CS row] (Lemma V.5/Thm V.6).

    The underlying CS uses 4x-coarse buckets (level 2); we measure both
    variances empirically over many seeds on the same streams.
    """
    salsa_sq = 0.0
    coarse_sq = 0.0
    trials = 50
    for seed in range(trials):
        w, level = 32, 2
        sk = SalsaCountSketch(w=w, d=1, s=8, seed=seed)
        rng = random.Random(10_000 + seed)
        truth = {}
        for _ in range(800):
            x = rng.randrange(300)
            sk.update(x)
            truth[x] = truth.get(x, 0) + 1
        target = 999_983
        sk.update(target, 10)
        truth[target] = 10
        salsa_err = sk.row_estimate(target, 0) - truth[target]
        salsa_sq += salsa_err * salsa_err
        # Underlying CS row: same hash, buckets coarsened by 2^level,
        # signs unchanged.
        seed0 = sk.hashes.seeds[0]
        h_t = mix64(target ^ seed0)
        bucket_t = (h_t & (w - 1)) >> level
        g_t = 1 if h_t >> 63 else -1
        counter = 0
        for y, f in truth.items():
            h = mix64(y ^ seed0)
            if (h & (w - 1)) >> level == bucket_t:
                counter += f * (1 if h >> 63 else -1)
        coarse_err = counter * g_t - truth[target]
        coarse_sq += coarse_err * coarse_err
    assert salsa_sq <= coarse_sq


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_salsa_vs_underlying_on_random_seeds(seed):
    """Thm V.1 dominance holds for arbitrary hash seeds."""
    fam = HashFamily(2, seed=seed)
    w = 32
    salsa = SalsaCountMin(w=w, d=2, s=4, merge="sum", hash_family=fam)
    rng = random.Random(seed)
    truth = {}
    for _ in range(1_500):
        x = rng.randrange(200)
        salsa.update(x)
        truth[x] = truth.get(x, 0) + 1
    level = max(row.level_of(j) for row in salsa.rows
                for j in range(w))
    fam2 = HashFamily(2, seed=seed)
    fam2.d = 2
    for x, f in list(truth.items())[:25]:
        underlying = _underlying_cms_estimate(truth, fam2, w, level, x)
        assert f <= salsa.query(x) <= underlying
