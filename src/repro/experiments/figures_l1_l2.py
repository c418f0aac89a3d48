"""Figures 10-11: SALSA CMS/CUS and SALSA CS on the four datasets.

Fig 10: error (a-d) and throughput (e-h) of SALSA vs Baseline CMS and
CUS on NY18/CH16/Univ2/YouTube.  Fig 11: SALSA CS error on the same
datasets.
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
from repro.streams import dataset as make_dataset

_PANELS_10_ERR = {"ny18": "a", "ch16": "b", "univ2": "c", "youtube": "d"}
_PANELS_10_SPD = {"ny18": "e", "ch16": "f", "univ2": "g", "youtube": "h"}
_PANELS_11 = {"ny18": "a", "ch16": "b", "univ2": "c", "youtube": "d"}


def fig10_error(dataset: str, length: int | None = None,
                trials: int | None = None) -> ExperimentResult:
    """NRMSE vs memory for Baseline/SALSA CMS and CUS on one dataset.

    Expected shape: SALSA roughly halves the memory needed for a given
    NRMSE on the skewed traces; the gain narrows on the low-skew Univ2.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure=f"fig10{_PANELS_10_ERR[dataset]}",
        title=f"L1 sketches error, {dataset}",
        xlabel="memory_bytes", ylabel="NRMSE",
    )
    factories = {
        "Baseline CMS": lambda mem, t: alg.baseline_cms(int(mem), seed=t),
        "Baseline CUS": lambda mem, t: alg.baseline_cus(int(mem), seed=t),
        "SALSA CMS": lambda mem, t: alg.salsa_cms(int(mem), seed=t),
        "SALSA CUS": lambda mem, t: alg.salsa_cus(int(mem), seed=t),
    }
    return sweep(
        result, config.MEMORY_SWEEP, factories,
        lambda sk, mem, t: nrmse_of(sk, make_dataset(dataset, length, seed=t)),
        trials,
    )


def fig10_speed(dataset: str, length: int | None = None,
                trials: int | None = None) -> ExperimentResult:
    """Update throughput vs memory for the same four algorithms.

    Expected shape: SALSA pays a throughput tax for its merging logic.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure=f"fig10{_PANELS_10_SPD[dataset]}",
        title=f"L1 sketches speed, {dataset}",
        xlabel="memory_bytes", ylabel="Mops",
    )
    factories = {
        "Baseline CMS": lambda mem, t: alg.baseline_cms(int(mem), seed=t),
        "Baseline CUS": lambda mem, t: alg.baseline_cus(int(mem), seed=t),
        "SALSA CMS": lambda mem, t: alg.salsa_cms(int(mem), seed=t),
        "SALSA CUS": lambda mem, t: alg.salsa_cus(int(mem), seed=t),
    }
    return sweep(
        result, config.MEMORY_SWEEP[:3], factories,
        lambda sk, mem, t: throughput_mops(
            sk, make_dataset(dataset, length, seed=t)),
        trials,
        jobs=1,  # wall-clock cells must not share cores (--jobs)
    )


def fig11(dataset: str, length: int | None = None,
          trials: int | None = None) -> ExperimentResult:
    """SALSA CS vs Baseline CS NRMSE on one dataset.

    Expected shape: statistically significant SALSA wins on NY18, CH16
    and YouTube; a wash on Univ2 where the encoding overhead offsets the
    gain.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure=f"fig11{_PANELS_11[dataset]}",
        title=f"Count Sketch error, {dataset}",
        xlabel="memory_bytes", ylabel="NRMSE",
    )
    factories = {
        "Baseline": lambda mem, t: alg.baseline_cs(int(mem), seed=t),
        "SALSA": lambda mem, t: alg.salsa_cs(int(mem), seed=t),
    }
    return sweep(
        result, config.MEMORY_SWEEP, factories,
        lambda sk, mem, t: nrmse_of(sk, make_dataset(dataset, length, seed=t)),
        trials,
    )
