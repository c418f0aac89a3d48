"""Figures 12-13: SALSA inside UnivMon and Cold Filter.

Fig 12: entropy ARE vs memory, and F_p moment ARE vs p, with UnivMon's
level sketches swapped for SALSA CS.  Fig 13: Cold Filter's stage-2
CUS swapped for SALSA CUS (AAE/ARE vs memory).
"""

from __future__ import annotations

from repro.experiments import algorithms as alg
from repro.experiments import config
from repro.experiments.runner import ExperimentResult, run_updates, sweep
from repro.metrics import relative_error
from repro.metrics.errors import final_errors
from repro.streams import synthetic_caida
from repro.tasks import entropy_estimate, moment_estimate, true_entropy
from repro.tasks.moments import true_moment


def _feed(sketch, trace):
    for x in trace:
        sketch.update(x)
    return sketch


def fig12a(length: int | None = None, trials: int | None = None,
           levels: int = 8) -> ExperimentResult:
    """Entropy estimation ARE vs memory, UnivMon vs SALSA-s UnivMon.

    The paper uses 16 levels; the default here is 8 to match the
    scaled-down stream (fewer levels than log2 of the distinct count
    are wasted).

    Expected shape: SALSA levels improve the estimate; smaller s helps
    entropy.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="fig12a", title="UnivMon entropy estimation, NY18",
        xlabel="memory_bytes", ylabel="ARE",
    )
    factories = {
        "Baseline": lambda mem, t: alg.univmon(int(mem), seed=t,
                                               use_salsa=False, levels=levels),
        "SALSA4": lambda mem, t: alg.univmon(int(mem), seed=t, use_salsa=True,
                                             levels=levels, salsa_s=4),
        "SALSA8": lambda mem, t: alg.univmon(int(mem), seed=t, use_salsa=True,
                                             levels=levels, salsa_s=8),
    }

    def measure(sketch, mem, t):
        trace = synthetic_caida(length, "ny18", seed=t)
        _feed(sketch, trace)
        return relative_error(entropy_estimate(sketch),
                              true_entropy(trace.frequencies()))

    return sweep(result, config.MEMORY_SWEEP, factories, measure, trials)


def fig12b(length: int | None = None, trials: int | None = None,
           memory: int = 32 * 1024, levels: int = 8) -> ExperimentResult:
    """F_p moment ARE vs p (0..2) at fixed memory.

    Expected shape: SALSA levels improve the estimate; the gain
    concentrates at large p (small p is cardinality-dominated).
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="fig12b", title="UnivMon Fp moment estimation, NY18",
        xlabel="p", ylabel="ARE",
    )
    ps = (0.0, 0.5, 1.0, 1.5, 2.0)
    for name, use_salsa, s in (("Baseline", False, 8), ("SALSA8", True, 8)):
        series = result.series_named(name)
        for p in ps:
            samples = []
            for t in range(trials):
                trace = synthetic_caida(length, "ny18", seed=t)
                sketch = alg.univmon(memory, seed=t, use_salsa=use_salsa,
                                     levels=levels, salsa_s=s)
                _feed(sketch, trace)
                est = moment_estimate(sketch, p)
                samples.append(
                    relative_error(est, true_moment(trace.frequencies(), p))
                )
            series.add(p, samples)
    return result


def fig13(length: int | None = None, trials: int | None = None
          ) -> list[ExperimentResult]:
    """Cold Filter AAE and ARE vs memory, Baseline vs SALSA stage 2.

    Expected shape: SALSA saves up to ~half the space at small memory,
    with the benefit fading as stage 1 absorbs everything.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    aae = ExperimentResult(
        figure="fig13_aae", title="Cold Filter AAE, NY18",
        xlabel="memory_bytes", ylabel="AAE",
    )
    are = ExperimentResult(
        figure="fig13_are", title="Cold Filter ARE, NY18",
        xlabel="memory_bytes", ylabel="ARE",
    )
    factories = {
        "Baseline": lambda mem, t: alg.cold_filter(int(mem), seed=t,
                                                   use_salsa=False),
        "SALSA": lambda mem, t: alg.cold_filter(int(mem), seed=t,
                                                use_salsa=True),
    }
    for name, factory in factories.items():
        for mem in config.MEMORY_SWEEP:
            a_samples, r_samples = [], []
            for t in range(trials):
                trace = synthetic_caida(length, "ny18", seed=t)
                sketch = factory(mem, t)
                truth = run_updates(sketch, trace)
                a_val, r_val = final_errors(sketch.query, truth)
                a_samples.append(a_val)
                r_samples.append(r_val)
            aae.series_named(name).add(mem, a_samples)
            are.series_named(name).add(mem, r_samples)
    return [aae, are]
