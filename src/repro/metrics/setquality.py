"""Set-quality metrics for heavy-hitter reporting.

The phi-heavy-hitter problem (section III) asks for *all* items above
``theta * Lp`` and *none* below ``(theta - eps) * Lp`` -- a set
recovery problem, so beyond the size-estimation errors (ARE/AAE, Figs
14 d-f) the natural scores are precision/recall/F1 over the reported
set.  No figure or bench reports these scores; Fig 15's top-k accuracy
is :func:`repro.tasks.topk.topk_accuracy`, which counts ties at the
k'th frequency as hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class SetQuality:
    """Precision / recall / F1 of a reported item set."""

    precision: float
    recall: float

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall (0 when both are 0)."""
        if self.precision + self.recall == 0:
            return 0.0
        return (2 * self.precision * self.recall
                / (self.precision + self.recall))


def set_quality(reported: Iterable[int], relevant: Iterable[int]
                ) -> SetQuality:
    """Precision/recall of ``reported`` against the ``relevant`` set.

    Empty edge cases follow convention: empty report -> precision 1
    (nothing wrong was said); empty relevant set -> recall 1 (nothing
    was missed).
    """
    reported_set = set(reported)
    relevant_set = set(relevant)
    hit = len(reported_set & relevant_set)
    precision = hit / len(reported_set) if reported_set else 1.0
    recall = hit / len(relevant_set) if relevant_set else 1.0
    return SetQuality(precision=precision, recall=recall)


def heavy_hitter_quality(reported: Iterable[int],
                         truth: Mapping[int, int], phi: float,
                         epsilon: float = 0.0) -> SetQuality:
    """Score a phi-HH report under the (theta, eps) formulation.

    Recall counts items with ``f >= phi * N``; precision forgives
    reports in the tolerance band ``[(phi - epsilon) * N, phi * N)``,
    exactly the slack the problem definition grants.
    """
    if not 0.0 <= phi <= 1.0:
        raise ValueError(f"phi must be in [0, 1], got {phi}")
    if epsilon < 0 or epsilon > phi:
        raise ValueError(f"epsilon must be in [0, phi], got {epsilon}")
    volume = sum(truth.values())
    must_report = {item for item, f in truth.items() if f >= phi * volume}
    tolerated = {item for item, f in truth.items()
                 if f >= (phi - epsilon) * volume}
    reported_set = set(reported)
    hit = len(reported_set & must_report)
    ok = len(reported_set & tolerated)
    precision = ok / len(reported_set) if reported_set else 1.0
    recall = hit / len(must_report) if must_report else 1.0
    return SetQuality(precision=precision, recall=recall)

