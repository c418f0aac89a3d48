"""Figures 16-17: estimator integration (AEE family) and counter
splitting.

Fig 16: NRMSE and throughput of Baseline, AEE MaxAccuracy/MaxSpeed,
SALSA, SALSA AEE and SALSA AEE_10 across memory.  Fig 17: the effect
of splitting counters after downsampling in SALSA AEE.
"""

from __future__ import annotations

from repro.experiments import algorithms as alg
from repro.experiments import config
from repro.experiments.runner import (
    ExperimentResult,
    nrmse_of,
    sweep,
    throughput_mops,
)
from repro.streams import synthetic_caida

_FAMILIES = {
    "Baseline": lambda mem, t: alg.baseline_cms(int(mem), seed=t),
    "AEE MaxAccuracy": lambda mem, t: alg.aee_max_accuracy(int(mem), seed=t),
    "AEE MaxSpeed": lambda mem, t: alg.aee_max_speed(int(mem), seed=t),
    "SALSA": lambda mem, t: alg.salsa_cms(int(mem), seed=t),
    "SALSA AEE": lambda mem, t: alg.salsa_aee(int(mem), seed=t),
    "SALSA AEE10": lambda mem, t: alg.salsa_aee(int(mem), seed=t,
                                                downsample_first=10),
}


def fig16_error(dataset: str = "ny18", length: int | None = None,
                trials: int | None = None) -> ExperimentResult:
    """NRMSE vs memory for the estimator family (panels a/b).

    Expected shape: SALSA AEE tracks the best of SALSA and AEE
    MaxAccuracy; SALSA AEE_10's aggressive downsampling trades accuracy
    for speed.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    panel = "a" if dataset == "ny18" else "b"
    result = ExperimentResult(
        figure=f"fig16{panel}", title=f"Estimator algorithms error, {dataset}",
        xlabel="memory_bytes", ylabel="NRMSE",
    )
    return sweep(
        result, config.MEMORY_SWEEP[:3], _FAMILIES,
        lambda sk, mem, t: nrmse_of(
            sk, synthetic_caida(length, dataset, seed=t)),
        trials,
    )


def fig16_speed(dataset: str = "ny18", length: int | None = None,
                trials: int | None = None) -> ExperimentResult:
    """Update throughput vs memory (panels c/d).

    Expected shape: the AEE variants skip hashes for unsampled packets
    and come out fastest; SALSA AEE_10's aggressive downsampling buys
    speed with accuracy.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    panel = "c" if dataset == "ny18" else "d"
    result = ExperimentResult(
        figure=f"fig16{panel}", title=f"Estimator algorithms speed, {dataset}",
        xlabel="memory_bytes", ylabel="Mops",
    )
    return sweep(
        result, config.MEMORY_SWEEP[:3], _FAMILIES,
        lambda sk, mem, t: throughput_mops(
            sk, synthetic_caida(length, dataset, seed=t)),
        trials,
        jobs=1,  # wall-clock cells must not share cores (--jobs)
    )


def fig17(dataset: str = "ny18", length: int | None = None,
          trials: int | None = None) -> ExperimentResult:
    """Counter splitting in SALSA AEE (panels a/b).

    Expected shape: a minor, mostly insignificant accuracy effect (the
    paper: 'minor, and in most cases ... insignificant').
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    panel = "a" if dataset == "ny18" else "b"
    result = ExperimentResult(
        figure=f"fig17{panel}", title=f"Splitting counters, {dataset}",
        xlabel="memory_bytes", ylabel="NRMSE",
    )
    factories = {
        "SALSA AEE": lambda mem, t: alg.salsa_aee(int(mem), seed=t,
                                                  split=False),
        "SALSA AEE Split": lambda mem, t: alg.salsa_aee(int(mem), seed=t,
                                                        split=True),
    }
    return sweep(
        result, config.MEMORY_SWEEP[:3], factories,
        lambda sk, mem, t: nrmse_of(
            sk, synthetic_caida(length, dataset, seed=t)),
        trials,
    )
