"""Figures 19-20 (Appendix B): small fixed counters vs the "0" algorithm.

ARE (Fig 19) and AAE (Fig 20) over phi-heavy hitters for CMS with
4/8/16/32-bit counters, SALSA, and the trivial "0" estimator.  At the
smallest phi (all flows), "0" wins -- the paper's demonstration that
the all-flows ARE/AAE metrics reward not measuring at all.
"""

from __future__ import annotations

from repro.experiments import algorithms as alg
from repro.experiments import config
from repro.experiments.runner import ExperimentResult, run_updates, sweep
from repro.sketches import ZeroSketch
from repro.streams import synthetic_caida
from repro.tasks.heavy_hitters import heavy_hitter_aae, heavy_hitter_are


def _factories(memory: int):
    return {
        "0": lambda phi, t: ZeroSketch(),
        "SALSA": lambda phi, t: alg.salsa_cms(memory, seed=t),
        "CMS (4-bits)": lambda phi, t: alg.baseline_cms(memory, seed=t,
                                                        counter_bits=4),
        "CMS (8-bits)": lambda phi, t: alg.baseline_cms(memory, seed=t,
                                                        counter_bits=8),
        "CMS (16-bits)": lambda phi, t: alg.baseline_cms(memory, seed=t,
                                                         counter_bits=16),
        "CMS (32-bits)": lambda phi, t: alg.baseline_cms(memory, seed=t,
                                                         counter_bits=32),
    }


#: The smallest phi is the "all flows" point (every item qualifies),
#: which is where the "0" algorithm wins.  The largest stays under the
#: NY18 profile's maximum flow share (~5.6e-3), mirroring the paper's
#: observation that its Fig 14d "stops around phi ~ 3.16e-4" for the
#: same reason.
_PHIS = (1e-8, 3e-4, 1e-3, 3e-3)


def fig19(length: int | None = None, trials: int | None = None,
          memory: int = 8 * 1024) -> ExperimentResult:
    """ARE vs phi for small-counter CMS, SALSA, and "0".

    Expected shape: at the all-flows point the "0" estimator beats every
    real sketch on ARE; past the saturation thresholds the small-counter
    variants collapse while SALSA and 32-bit stay accurate.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="fig19", title='Small counters vs the "0" algorithm (ARE)',
        xlabel="phi", ylabel="ARE",
    )

    def measure(sketch, phi, t):
        trace = synthetic_caida(length, "ny18", seed=t)
        truth = run_updates(sketch, trace)
        return heavy_hitter_are(sketch.query, truth, max(phi, 1e-12))

    return sweep(result, _PHIS, _factories(memory), measure, trials)


def fig20(length: int | None = None, trials: int | None = None,
          memory: int = 8 * 1024) -> ExperimentResult:
    """AAE vs phi for small-counter CMS, SALSA, and "0".

    Expected shape: at the all-flows point the "0" estimator beats every
    real sketch on AAE; past the saturation thresholds the small-counter
    variants collapse while SALSA and 32-bit stay accurate.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="fig20", title='Small counters vs the "0" algorithm (AAE)',
        xlabel="phi", ylabel="AAE",
    )

    def measure(sketch, phi, t):
        trace = synthetic_caida(length, "ny18", seed=t)
        truth = run_updates(sketch, trace)
        return heavy_hitter_aae(sketch.query, truth, max(phi, 1e-12))

    return sweep(result, _PHIS, _factories(memory), measure, trials)
