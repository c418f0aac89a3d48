"""Figures 14-15: count distinct, heavy hitters, top-k, change detection.

Fig 14 a-c: Linear Counting ARE vs memory (NY18/CH16) and vs skew.
Fig 14 d-f: heavy-hitter size ARE vs phi (NY18/CH16) and vs skew.
Fig 15 a/b: top-k accuracy vs k and vs skew (Count Sketch).
Fig 15 c/d: change-detection NRMSE vs memory and vs skew.
"""

from __future__ import annotations

from repro.core import SalsaCountSketch, ops
from repro.experiments import algorithms as alg
from repro.experiments import config
from repro.experiments.runner import ExperimentResult, run_updates, sweep
from repro.hashing import HashFamily
from repro.metrics import relative_error
from repro.sketches import CountMinSketch, CountSketch
from repro.streams import synthetic_caida, zipf_trace
from repro.tasks import (
    change_detection_nrmse,
    distinct_count_baseline,
    distinct_count_salsa,
)
from repro.tasks.heavy_hitters import heavy_hitter_are
from repro.tasks.topk import run_topk


# ----------------------------------------------------------------------
# Fig 14 a-c: count distinct
# ----------------------------------------------------------------------
def _distinct_are(sketch, trace, is_salsa: bool) -> float:
    run_updates(sketch, trace)
    est = (distinct_count_salsa(sketch) if is_salsa
           else distinct_count_baseline(sketch))
    truth = trace.distinct_count()
    if est is None:
        return 1.0  # saturated estimator: 100% error, as a "failed" mark
    return relative_error(est, truth)


def fig14_distinct(dataset: str, length: int | None = None,
                   trials: int | None = None) -> ExperimentResult:
    """Count-distinct ARE vs memory (panels a/b).

    Expected shape: SALSA's Linear Counting works at lower memory and
    with lower ARE (more, smaller cells).
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    panel = "a" if dataset == "ny18" else "b"
    result = ExperimentResult(
        figure=f"fig14{panel}", title=f"Count distinct, {dataset}",
        xlabel="memory_bytes", ylabel="ARE",
    )
    factories = {
        "Baseline": lambda mem, t: alg.baseline_cms(int(mem), seed=t),
        "SALSA": lambda mem, t: alg.salsa_cms(int(mem), seed=t),
    }
    return sweep(
        result, config.MEMORY_SWEEP, factories,
        lambda sk, mem, t: _distinct_are(
            sk, synthetic_caida(length, dataset, seed=t),
            not isinstance(sk, CountMinSketch)),
        trials,
    )


def fig14c(length: int | None = None, trials: int | None = None,
           memory: int = 32 * 1024) -> ExperimentResult:
    """Count-distinct ARE vs Zipf skew (panel c).

    Expected shape: as :func:`fig14_distinct`'s.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="fig14c", title="Count distinct, Zipf",
        xlabel="zipf_skew", ylabel="ARE",
    )
    factories = {
        "Baseline": lambda skew, t: alg.baseline_cms(memory, seed=t),
        "SALSA": lambda skew, t: alg.salsa_cms(memory, seed=t),
    }
    return sweep(
        result, config.SKEWS, factories,
        lambda sk, skew, t: _distinct_are(
            sk, zipf_trace(length, skew, seed=t),
            not isinstance(sk, CountMinSketch)),
        trials,
    )


# ----------------------------------------------------------------------
# Fig 14 d-f: heavy hitter sizes
# ----------------------------------------------------------------------
def _hh_are(sketch, trace, phi: float) -> float:
    truth = run_updates(sketch, trace)
    return heavy_hitter_are(sketch.query, truth, phi)


def fig14_hitters(dataset: str, length: int | None = None,
                  trials: int | None = None, memory: int = 8 * 1024
                  ) -> ExperimentResult:
    """Heavy-hitter size ARE vs phi (panels d/e).

    Expected shape: SALSA sizes heavy hitters better, especially at
    small phi.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    panel = "d" if dataset == "ny18" else "e"
    result = ExperimentResult(
        figure=f"fig14{panel}", title=f"Heavy hitter sizes, {dataset}",
        xlabel="phi", ylabel="ARE",
    )
    # Bounded by the traces' maximum flow share (the paper's Fig 14d
    # similarly stops near the largest flow's share).
    phis = (3e-4, 1e-3, 3e-3)
    factories = {
        "Baseline": lambda phi, t: alg.baseline_cms(memory, seed=t),
        "SALSA": lambda phi, t: alg.salsa_cms(memory, seed=t),
    }
    return sweep(
        result, phis, factories,
        lambda sk, phi, t: _hh_are(
            sk, synthetic_caida(length, dataset, seed=t), phi),
        trials,
    )


def fig14f(length: int | None = None, trials: int | None = None,
           memory: int = 8 * 1024, phi: float = 3e-3) -> ExperimentResult:
    """Heavy-hitter size ARE vs skew (panel f).

    Expected shape: as :func:`fig14_hitters`'s.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="fig14f", title="Heavy hitter sizes, Zipf",
        xlabel="zipf_skew", ylabel="ARE",
    )
    factories = {
        "Baseline": lambda skew, t: alg.baseline_cms(memory, seed=t),
        "SALSA": lambda skew, t: alg.salsa_cms(memory, seed=t),
    }
    return sweep(
        result, config.SKEWS, factories,
        lambda sk, skew, t: _hh_are(sk, zipf_trace(length, skew, seed=t), phi),
        trials,
    )


# ----------------------------------------------------------------------
# Fig 15 a/b: top-k
# ----------------------------------------------------------------------
def fig15a(length: int | None = None, trials: int | None = None,
           memory: int = 8 * 1024) -> ExperimentResult:
    """Top-k accuracy vs k on the NY18-like trace (constrained memory).

    Expected shape: SALSA detects top-k more accurately under
    constrained memory (biggest gains at large k / low skew).
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="fig15a", title="Top-k accuracy, NY18",
        xlabel="k", ylabel="accuracy",
    )
    ks = (16, 64, 256)
    factories = {
        "Baseline": lambda k, t: alg.baseline_cs(memory, seed=t),
        "SALSA": lambda k, t: alg.salsa_cs(memory, seed=t),
    }
    return sweep(
        result, ks, factories,
        lambda sk, k, t: run_topk(
            sk, synthetic_caida(length, "ny18", seed=t), int(k))[0],
        trials,
    )


def fig15b(length: int | None = None, trials: int | None = None,
           memory: int = 8 * 1024, k: int = 128) -> ExperimentResult:
    """Top-k accuracy vs skew.

    Expected shape: as :func:`fig15a`'s.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="fig15b", title=f"Top-{k} accuracy, Zipf",
        xlabel="zipf_skew", ylabel="accuracy",
    )
    factories = {
        "Baseline": lambda skew, t: alg.baseline_cs(memory, seed=t),
        "SALSA": lambda skew, t: alg.salsa_cs(memory, seed=t),
    }
    return sweep(
        result, config.SKEWS, factories,
        lambda sk, skew, t: run_topk(
            sk, zipf_trace(length, skew, seed=t), k)[0],
        trials,
    )


# ----------------------------------------------------------------------
# Fig 15 c/d: change detection
# ----------------------------------------------------------------------
def _change_nrmse(trace, memory: int, use_salsa: bool, seed: int) -> float:
    fam = HashFamily(5, seed=seed)
    if use_salsa:
        w = SalsaCountSketch.for_memory(memory, d=5).w
        return change_detection_nrmse(
            trace,
            make_sketch=lambda: SalsaCountSketch(w=w, d=5, hash_family=fam),
            subtract=ops.subtract,
        )
    w = CountSketch.for_memory(memory, d=5).w
    return change_detection_nrmse(
        trace,
        make_sketch=lambda: CountSketch(w=w, d=5, hash_family=fam),
        subtract=lambda a, b: a.subtract(b),
    )


def fig15c(length: int | None = None, trials: int | None = None
           ) -> ExperimentResult:
    """Change-detection NRMSE vs memory, NY18-like trace.

    Expected shape: SALSA wins change-detection NRMSE across memory and
    skew.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="fig15c", title="Change detection, NY18",
        xlabel="memory_bytes", ylabel="NRMSE",
    )
    for name, use_salsa in (("Baseline", False), ("SALSA", True)):
        series = result.series_named(name)
        for mem in config.MEMORY_SWEEP:
            samples = [
                _change_nrmse(synthetic_caida(length, "ny18", seed=t),
                              mem, use_salsa, seed=t)
                for t in range(trials)
            ]
            series.add(mem, samples)
    return result


def fig15d(length: int | None = None, trials: int | None = None,
           memory: int = 8 * 1024) -> ExperimentResult:
    """Change-detection NRMSE vs skew at fixed memory.

    Expected shape: as :func:`fig15c`'s.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="fig15d", title="Change detection, Zipf",
        xlabel="zipf_skew", ylabel="NRMSE",
    )
    for name, use_salsa in (("Baseline", False), ("SALSA", True)):
        series = result.series_named(name)
        for skew in config.SKEWS:
            samples = [
                _change_nrmse(zipf_trace(length, skew, seed=t),
                              memory, use_salsa, seed=t)
                for t in range(trials)
            ]
            series.add(skew, samples)
    return result
