"""Ablation: the simple (1 bit/counter) vs compact (0.594 bits/counter)
encodings.

Section IV claims the compact encoding "provides improved accuracy as
the lower overhead allows fitting more counters, but may be somewhat
slower".  This ablation quantifies both halves of that trade-off at
equal total memory (overheads included), which the paper asserts but
does not plot.
"""

from __future__ import annotations

from repro.core import SalsaCountMin
from repro.experiments import config
from repro.experiments.runner import (
    ExperimentResult,
    nrmse_of,
    sweep,
    throughput_mops,
)
from repro.streams import synthetic_caida


def ablation_encoding(length: int | None = None, trials: int | None = None
                      ) -> list[ExperimentResult]:
    """NRMSE and throughput of SALSA CMS under both encodings.

    Expected shape: compact fits more counters (slightly lower NRMSE)
    but pays divmod-decoding cost on every access (lower throughput) --
    the trade-off section IV describes.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    error = ExperimentResult(
        figure="ablation_encoding_error",
        title="Simple vs compact encoding (SALSA CMS, NY18)",
        xlabel="memory_bytes", ylabel="NRMSE",
    )
    speed = ExperimentResult(
        figure="ablation_encoding_speed",
        title="Simple vs compact encoding, update speed",
        xlabel="memory_bytes", ylabel="Mops",
    )
    factories = {
        "Simple (1 bit)": lambda mem, t: SalsaCountMin.for_memory(
            int(mem), d=4, s=8, encoding="simple", seed=t),
        "Compact (0.594 bits)": lambda mem, t: SalsaCountMin.for_memory(
            int(mem), d=4, s=8, encoding="compact", seed=t),
    }
    sweep(
        error, config.MEMORY_SWEEP[:3], factories,
        lambda sk, mem, t: nrmse_of(
            sk, synthetic_caida(length, "ny18", seed=t)),
        trials,
    )
    sweep(
        speed, config.MEMORY_SWEEP[:2], factories,
        lambda sk, mem, t: throughput_mops(
            sk, synthetic_caida(length, "ny18", seed=t)),
        trials,
        jobs=1,  # wall-clock cells must not share cores (--jobs)
    )
    return [error, speed]
