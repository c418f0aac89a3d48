"""Figures 8-9: SALSA vs Pyramid Sketch vs ABC vs the Baseline.

Fig 8 sweeps memory and reports throughput, NRMSE, AAE and ARE on the
NY18- and CH16-like traces.  To avoid re-running each configuration
four times, one pass produces all the error metrics and a second
(query-free) pass measures update throughput.

Fig 9 is the per-element error-distribution scatter; we reproduce it
as error quantiles per algorithm, which captures its two diagnoses:
Pyramid's high variance (region A) and ABC's saturated heavy hitters
(region B).
"""

from __future__ import annotations

from repro.experiments import algorithms as alg
from repro.experiments import config
from repro.experiments.runner import (
    ExperimentResult,
    run_on_arrival,
    throughput_mops,
)
from repro.metrics.errors import final_errors
from repro.streams import synthetic_caida


_ALGOS = {
    "Pyramid": alg.pyramid,
    "ABC": alg.abc,
    "Baseline": alg.baseline_cms,
    "SALSA": alg.salsa_cms,
}


def fig8(dataset: str = "ny18", length: int | None = None,
         trials: int | None = None) -> list[ExperimentResult]:
    """Full Fig 8 panel set for one dataset: speed, NRMSE, AAE, ARE.

    Expected shape: SALSA best/competitive on NRMSE everywhere; ABC's
    NRMSE floors once heavy hitters pass 2^13 - 1; the Baseline loses on
    AAE/ARE across the range; the variable-size schemes pay a throughput
    tax over the Baseline.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    suffix = "a" if dataset == "ny18" else "b"
    speed = ExperimentResult(
        figure=f"fig8{suffix}", title=f"Speed, {dataset.upper()}",
        xlabel="memory_bytes", ylabel="Mops",
    )
    suffix_err = "c" if dataset == "ny18" else "d"
    nrmse = ExperimentResult(
        figure=f"fig8{suffix_err}", title=f"NRMSE, {dataset.upper()}",
        xlabel="memory_bytes", ylabel="NRMSE",
    )
    suffix_aae = "e" if dataset == "ny18" else "f"
    aae = ExperimentResult(
        figure=f"fig8{suffix_aae}", title=f"AAE, {dataset.upper()}",
        xlabel="memory_bytes", ylabel="AAE",
    )
    suffix_are = "g" if dataset == "ny18" else "h"
    are = ExperimentResult(
        figure=f"fig8{suffix_are}", title=f"ARE, {dataset.upper()}",
        xlabel="memory_bytes", ylabel="ARE",
    )
    for name, factory in _ALGOS.items():
        for mem in config.MEMORY_SWEEP:
            n_samples, a_samples, r_samples = [], [], []
            s_samples, b_samples = [], []
            for t in range(trials):
                trace = synthetic_caida(length, dataset, seed=t)
                sketch = factory(mem, seed=t)
                collector = run_on_arrival(sketch, trace)
                n_samples.append(collector.nrmse())
                a_val, r_val = final_errors(sketch.query,
                                            collector.true_frequencies)
                a_samples.append(a_val)
                r_samples.append(r_val)
                s_samples.append(
                    throughput_mops(factory(mem, seed=t + 100), trace)
                )
                b_samples.append(
                    throughput_mops(factory(mem, seed=t + 100), trace,
                                    batch_size=4096)
                )
            nrmse.series_named(name).add(mem, n_samples)
            aae.series_named(name).add(mem, a_samples)
            are.series_named(name).add(mem, r_samples)
            speed.series_named(name).add(mem, s_samples)
            speed.series_named(f"{name} (batched)").add(mem, b_samples)
    return [speed, nrmse, aae, are]


def fig9(dataset: str = "ny18", length: int | None = None,
         memory: int = 32 * 1024) -> ExperimentResult:
    """Error-distribution quantiles per algorithm (one trial, as the
    paper samples one element per frequency).

    Expected shape: SALSA has low error variance; Pyramid's tail blows
    up (sibling MSB sharing, region A); ABC's max error is the saturated
    heavy hitter (region B).
    """
    length = length or config.stream_length()
    suffix = "a" if dataset == "ny18" else "b"
    result = ExperimentResult(
        figure=f"fig9{suffix}",
        title=f"Per-element |error| quantiles, {dataset.upper()} ({memory}B)",
        xlabel="quantile", ylabel="absolute_error",
    )
    trace = synthetic_caida(length, dataset, seed=0)
    truth = trace.frequencies()
    quantiles = (0.5, 0.9, 0.99, 1.0)
    for name, factory in _ALGOS.items():
        sketch = factory(memory, seed=0)
        for x in trace:
            sketch.update(x)
        errors = sorted(abs(sketch.query(x) - f) for x, f in truth.items())
        series = result.series_named(name)
        for q in quantiles:
            idx = min(len(errors) - 1, int(q * len(errors)))
            series.add(q, [float(errors[idx])])
    return result
