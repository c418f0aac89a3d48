"""Matrix batch kernels for fixed-width ``d x w`` counter sketches.

The matrix-backed sketches (Count Sketch and UnivMon's Count Sketch
levels) and the competitors that hash like them
(NitroSketch, Pyramid's layers) share one physical shape: a ``d x w``
matrix of counters where an update touches one column per row and a
query gathers one column per row.  This module is the vectorized datapath
for that shape -- every primitive takes *stacked* per-row indices (a
``(d, n)`` matrix built from one
:meth:`~repro.hashing.HashFamily.index_matrix` call over all rows at
once) and performs the whole batch in a constant number of NumPy
operations:

* :func:`scatter_add_signed` -- Count-Sketch-style signed bulk add
  behind a per-row clamp guard (rows that could clamp are *not*
  applied and reported back for an exact ordered replay);
* :func:`scatter_add_running` -- ordered bulk add that also returns the
  post-update value of each touched counter (the on-arrival door:
  exact intermediate estimates without a per-item loop);
* :func:`gather_2d` / :func:`median_over_rows` -- the query-side
  gather and Count Sketch's row aggregation.

The fixed-width Count-Min, Conservative Update and AEE sketches are
not here: their rows are SALSA rows that never merge, so they take the
SALSA row doors (:mod:`repro.core.row`, :mod:`repro.core._native`).

Which batch a kernel sees is the caller's choice.  Count Sketch's
signed scatter collapses duplicate flat indices first; the query
gathers and :func:`scatter_add_running` take the raw batch, duplicates
included, in stream order.  Everything here preserves the batch
contract (bit-identity with the per-item walk); the guard-then-fallback
decisions stay in the sketches.
"""

from __future__ import annotations

import numpy as np


def flat_indices(idx2d: np.ndarray, w: int) -> np.ndarray:
    """Flatten a ``(d, n)`` column-index matrix into indices of the
    raveled ``d x w`` matrix (row ``r`` occupies ``[r*w, (r+1)*w)``)."""
    d = idx2d.shape[0]
    offsets = (np.arange(d, dtype=np.int64) * w)[:, None]
    return (idx2d + offsets).ravel()


def gather_2d(mat: np.ndarray, idx2d: np.ndarray) -> np.ndarray:
    """Counter values at ``idx2d``: a ``(d, n)`` gather in one shot."""
    return mat.ravel()[flat_indices(idx2d, mat.shape[1])].reshape(idx2d.shape)


def median_over_rows(votes2d: np.ndarray) -> np.ndarray:
    """Count-Sketch query aggregation, replicating
    :func:`repro.sketches.base.median` exactly: the middle row for odd
    ``d`` (same dtype as the votes), the mean of the two middle rows
    for even ``d`` (float).  The input is not modified.

    Columns are sorted by an odd-even transposition network: ``d``
    rounds of neighbour compare-exchanges, each one vectorized
    ``np.minimum``/``np.maximum`` over the whole batch, where
    ``np.sort(axis=0)`` would run one tiny strided sort per column.
    """
    votes = [row.copy() for row in votes2d]
    d = len(votes)
    for rnd in range(d):
        for i in range(rnd % 2, d - 1, 2):
            a, b = votes[i], votes[i + 1]
            votes[i], votes[i + 1] = np.minimum(a, b), np.maximum(a, b)
    mid = d // 2
    if d % 2:
        return votes[mid]
    lo, hi = votes[mid - 1], votes[mid]
    total = lo + hi
    est = total / 2
    if votes2d.dtype.kind == "i":
        # Two int64 votes whose sum wraps: average them in Python ints,
        # as median() does (a SALSA CS counter reaches 2^63 - 1).
        for i in np.flatnonzero(((lo ^ total) & (hi ^ total)) < 0).tolist():
            est[i] = (int(lo[i]) + int(hi[i])) / 2
    return est


def _aggregate_flat(flat: np.ndarray, deltas: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate flat indices: ``(unique_flat, summed_deltas)``."""
    uidx, inv = np.unique(flat, return_inverse=True)
    agg = np.zeros(len(uidx), dtype=np.int64)
    np.add.at(agg, inv, deltas)
    return uidx, agg


def scatter_add_signed(mat: np.ndarray, idx2d: np.ndarray,
                       signed2d: np.ndarray, mags: np.ndarray,
                       lo: int, hi: int) -> np.ndarray:
    """Signed bulk add behind a per-row clamp guard.

    ``signed2d[(r, i)]`` is the key's signed delta in row ``r``;
    ``mags`` its absolute inflow (sign-free, shared by all rows).  A
    row is applied only when every touched counter provably stays in
    ``[lo, hi]`` under the worst-case prefix (``old +/- total |inflow|``
    in range); the returned boolean array marks the rows that were
    *skipped* so the caller can replay them in exact stream order.
    """
    d, _ = idx2d.shape
    w = mat.shape[1]
    flat = flat_indices(idx2d, w)
    uidx, inv = np.unique(flat, return_inverse=True)
    agg = np.zeros(len(uidx), dtype=np.int64)
    np.add.at(agg, inv, signed2d.ravel())
    mag = np.zeros(len(uidx), dtype=np.int64)
    np.add.at(mag, inv, np.broadcast_to(mags, idx2d.shape).ravel())
    view = mat.reshape(-1)
    old = view[uidx]
    risky = (old + mag > hi) | (old - mag < lo)
    deferred = np.zeros(d, dtype=bool)
    deferred[np.unique(uidx[risky] // w)] = True
    safe = ~deferred[uidx // w]
    view[uidx[safe]] = old[safe] + agg[safe]
    return deferred


def scatter_add_running(mat: np.ndarray, idx2d: np.ndarray,
                        deltas2d: np.ndarray) -> np.ndarray:
    """Ordered bulk add returning each update's post-update value.

    Applies ``deltas2d`` in stream order per counter and returns the
    ``(d, n)`` matrix of counter values *immediately after* each
    update -- the exact intermediate states an on-arrival per-item
    walk would observe.  Callers must rule out clamping beforehand
    (no saturation may fire mid-batch); with pure additions, the value
    after occurrence ``t`` of a counter is its start value plus the
    prefix sum of its own deltas, computed here with one stable sort
    and one cumulative sum over the whole ``d x n`` batch.
    """
    d, n = idx2d.shape
    w = mat.shape[1]
    flat = flat_indices(idx2d, w)
    deltas = deltas2d.ravel()
    order = np.argsort(flat, kind="stable")
    fs = flat[order]
    cs = np.cumsum(deltas[order])
    total = d * n
    starts = np.empty(total, dtype=bool)
    starts[0] = True
    np.not_equal(fs[1:], fs[:-1], out=starts[1:])
    start_pos = np.flatnonzero(starts)
    group_id = np.cumsum(starts) - 1
    base = np.empty(len(start_pos), dtype=cs.dtype)
    base[0] = 0
    base[1:] = cs[start_pos[1:] - 1]
    view = mat.reshape(-1)
    run_sorted = view[fs] + (cs - base[group_id])
    ends = np.empty(len(start_pos), dtype=np.int64)
    ends[:-1] = start_pos[1:] - 1
    ends[-1] = total - 1
    view[fs[start_pos]] = run_sorted[ends]
    running = np.empty(total, dtype=run_sorted.dtype)
    running[order] = run_sorted
    return running.reshape(d, n)
