"""Top-k recovery (Fig 15 a/b).

The paper measures *accuracy*: the fraction of the true top-k items
that the sketch-plus-heap pipeline reports among its top k.  Ties at
the k'th frequency are resolved generously (any item tied with the
true k'th counts as correct), matching the usual evaluation practice.
"""

from __future__ import annotations

from typing import Mapping

from repro.tasks.heavy_hitters import HeavyHitterTracker


def true_topk(truth: Mapping[int, int], k: int) -> set[int]:
    """The k items with the largest true frequencies."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranked = sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))
    return {x for x, _f in ranked[:k]}


def topk_accuracy(reported: list[int], truth: Mapping[int, int], k: int) -> float:
    """Fraction of reported top-k that are genuinely top-k (tie-aware)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranked = sorted(truth.values(), reverse=True)
    if len(ranked) < k:
        raise ValueError(f"fewer than k={k} distinct items in the stream")
    kth = ranked[k - 1]
    hits = sum(1 for x in reported[:k] if truth.get(x, 0) >= kth)
    return hits / k


def track_topk(sketch, trace, k: int, heap_capacity: int | None = None
               ) -> tuple[HeavyHitterTracker, dict[int, int]]:
    """Stream ``trace`` through ``sketch`` with a tracking heap.

    Returns ``(tracker, truth)``.  The heap holds ``heap_capacity``
    candidates (default ``2k``, giving the sketch slack to correct
    early mistakes, as real deployments do).
    """
    tracker = HeavyHitterTracker(heap_capacity or 2 * k)
    truth: dict[int, int] = {}
    for x in trace:
        sketch.update(x)
        tracker.offer(x, sketch.query(x))
        truth[x] = truth.get(x, 0) + 1
    return tracker, truth


def run_topk(sketch, trace, k: int, heap_capacity: int | None = None
             ) -> tuple[float, dict[int, int]]:
    """:func:`track_topk`, scored: ``(accuracy, truth)``."""
    tracker, truth = track_topk(sketch, trace, k, heap_capacity)
    return topk_accuracy(tracker.top(k), truth, k), truth
