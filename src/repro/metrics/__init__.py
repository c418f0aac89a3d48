"""Error metrics and statistics used throughout the evaluation.

The paper's metrics (section VI, "Metrics"):

* **On-arrival** frequency-estimation errors: each arriving element is
  queried *before* its update is applied; the per-arrival errors feed
  MSE / RMSE / NRMSE (NRMSE = RMSE / n, a unitless quantity in [0,1]).
* **AAE / ARE** over all elements with non-zero frequency (the metrics
  Pyramid and ABC report).
* **ARE over task outputs** (count distinct, entropy, moments), and
  **accuracy** (fraction of true top-k recovered) for top-k.
* Means with 95% Student-t confidence intervals over repeated trials.
"""

from repro.metrics.errors import (
    OnArrivalCollector,
    mse,
    rmse,
    nrmse,
    aae,
    are,
    relative_error,
)
from repro.metrics.stats import mean_ci, Summary

__all__ = [
    "OnArrivalCollector",
    "mse",
    "rmse",
    "nrmse",
    "aae",
    "are",
    "relative_error",
    "mean_ci",
    "Summary",
]
