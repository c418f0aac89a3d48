"""Figures 4-7: SALSA configuration experiments on synthetic workloads.

* Fig 4: how small should the base counters be (s sweep vs Zipf skew)?
* Fig 5: sum vs max merging.
* Fig 6: why fixed small counters fail (heavy hitters, long streams).
* Fig 7: is Tango's fine-grained merging worth it?
"""

from __future__ import annotations

from repro.experiments import algorithms as alg
from repro.experiments import config
from repro.experiments.runner import (
    ExperimentResult,
    hh_are_of,
    nrmse_of,
    sweep,
)
from repro.sketches import CountMinSketch, CountSketch
from repro.core import SalsaCountMin, SalsaCountSketch
from repro.streams import synthetic_caida, zipf_trace


def _skews():
    return list(config.SKEWS)


def fig4a(length: int | None = None, trials: int | None = None,
          base_w: int = 1 << 9) -> ExperimentResult:
    """NRMSE vs Zipf skew for SALSA-s CMS (encoding overheads ignored,
    as in the paper's configuration experiment).

    The Baseline uses ``base_w`` 32-bit counters per row; SALSA-s uses
    ``base_w * 32 / s`` s-bit counters -- identical counter memory.

    Expected shape: most of the gain comes from 32 -> 8 bits; smaller s
    helps most at low skew.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="fig4a", title="Error, Count Min Sketch (fixed counter memory)",
        xlabel="zipf_skew", ylabel="NRMSE",
    )
    factories = {"Baseline": lambda skew, t: CountMinSketch(
        w=base_w, d=4, counter_bits=32, seed=t)}
    for s in (2, 4, 8, 16):
        factories[f"SALSA{s}"] = (
            lambda skew, t, s=s: SalsaCountMin(
                w=base_w * 32 // s, d=4, s=s, seed=t)
        )
    return sweep(
        result, _skews(), factories,
        lambda sk, skew, t: nrmse_of(sk, zipf_trace(length, skew, seed=t)),
        trials,
    )


def fig4b(length: int | None = None, trials: int | None = None,
          base_w: int = 1 << 9) -> ExperimentResult:
    """NRMSE vs Zipf skew for SALSA-s Count Sketch (d=5).

    Expected shape: as :func:`fig4a`'s.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="fig4b", title="Error, Count Sketch (fixed counter memory)",
        xlabel="zipf_skew", ylabel="NRMSE",
    )
    factories = {"Baseline": lambda skew, t: CountSketch(
        w=base_w, d=5, seed=t)}
    for s in (2, 4, 8, 16):
        factories[f"SALSA{s}"] = (
            lambda skew, t, s=s: SalsaCountSketch(
                w=base_w * 32 // s, d=5, s=s, seed=t)
        )
    return sweep(
        result, _skews(), factories,
        lambda sk, skew, t: nrmse_of(sk, zipf_trace(length, skew, seed=t)),
        trials,
    )


def fig5a(length: int | None = None, trials: int | None = None
          ) -> ExperimentResult:
    """Sum vs max merge, NY18-like memory sweep.

    Expected shape: max is slightly more accurate, especially at low
    skew.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="fig5a", title="SALSA CMS merge policies, NY18",
        xlabel="memory_bytes", ylabel="NRMSE",
    )
    factories = {
        "SALSA Max": lambda mem, t: alg.salsa_cms(int(mem), seed=t, merge="max"),
        "SALSA Sum": lambda mem, t: alg.salsa_cms(int(mem), seed=t, merge="sum"),
    }
    return sweep(
        result, config.MEMORY_SWEEP, factories,
        lambda sk, mem, t: nrmse_of(sk, synthetic_caida(length, "ny18", seed=t)),
        trials,
    )


def fig5b(length: int | None = None, trials: int | None = None
          ) -> ExperimentResult:
    """Sum vs max merge across Zipf skews (8KB).

    Expected shape: as :func:`fig5a`'s.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    memory = 8 * 1024
    result = ExperimentResult(
        figure="fig5b", title="SALSA CMS merge policies, Zipf",
        xlabel="zipf_skew", ylabel="NRMSE",
    )
    factories = {
        "SALSA Max": lambda skew, t: alg.salsa_cms(memory, seed=t, merge="max"),
        "SALSA Sum": lambda skew, t: alg.salsa_cms(memory, seed=t, merge="sum"),
    }
    return sweep(
        result, _skews(), factories,
        lambda sk, skew, t: nrmse_of(sk, zipf_trace(length, skew, seed=t)),
        trials,
    )


def fig6a(length: int | None = None, trials: int | None = None,
          memory: int = 8 * 1024) -> ExperimentResult:
    """Heavy-hitter ARE vs threshold phi: SALSA vs fixed 8/16/32-bit CMS.

    Reproduces the collapse of small fixed counters once phi*N passes
    their saturation value.

    Expected shape: 8/16-bit CMS collapse on heavy hitters past their
    saturation values; 32-bit and SALSA do not.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    phis = (1e-3, 3e-3, 1e-2, 3e-2)
    result = ExperimentResult(
        figure="fig6a", title="Heavy hitter sizes: small fixed counters fail",
        xlabel="phi", ylabel="ARE",
    )
    factories = {
        "SALSA": lambda phi, t: alg.salsa_cms(memory, seed=t),
        "CMS (8-bits)": lambda phi, t: alg.baseline_cms(memory, seed=t,
                                                        counter_bits=8),
        "CMS (16-bits)": lambda phi, t: alg.baseline_cms(memory, seed=t,
                                                         counter_bits=16),
        "CMS (32-bits)": lambda phi, t: alg.baseline_cms(memory, seed=t,
                                                         counter_bits=32),
    }
    return sweep(
        result, phis, factories,
        lambda sk, phi, t: hh_are_of(
            sk, zipf_trace(length, 1.0, seed=t), phi),
        trials,
    )


def fig6b(trials: int | None = None, memory: int = 8 * 1024,
          phi: float = 3e-3) -> ExperimentResult:
    """Heavy-hitter ARE vs stream length: the 16-bit variant degrades
    once streams outgrow its counting range.

    Expected shape: 8/16-bit CMS degrade as streams lengthen; 32-bit and
    SALSA do not.
    """
    trials = trials or config.trials()
    # Spans the 8-bit saturation point: at the shortest length the head
    # flow fits in 255, at the longest it is ~40x past it (the paper's
    # Fig 6b shows the same transition for 16-bit counters at 10M+).
    lengths = [int(config.stream_length(base)) for base in
               (1 << 11, 1 << 14, 1 << 17)]
    result = ExperimentResult(
        figure="fig6b", title="Heavy hitter sizes vs stream length",
        xlabel="stream_length", ylabel="ARE",
    )
    factories = {
        "SALSA": lambda n, t: alg.salsa_cms(memory, seed=t),
        "CMS (8-bits)": lambda n, t: alg.baseline_cms(memory, seed=t,
                                                      counter_bits=8),
        "CMS (16-bits)": lambda n, t: alg.baseline_cms(memory, seed=t,
                                                       counter_bits=16),
        "CMS (32-bits)": lambda n, t: alg.baseline_cms(memory, seed=t,
                                                       counter_bits=32),
    }
    return sweep(
        result, lengths, factories,
        lambda sk, n, t: hh_are_of(
            sk, zipf_trace(int(n), 1.0, seed=t), phi),
        trials,
    )


def fig7a(length: int | None = None, trials: int | None = None
          ) -> ExperimentResult:
    """Tango-s vs SALSA, NY18-like memory sweep.

    Expected shape: Tango marginally more accurate than SALSA at equal
    s, nowhere near enough to justify its decode cost.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="fig7a", title="Tango vs SALSA, NY18",
        xlabel="memory_bytes", ylabel="NRMSE",
    )
    factories = {
        "SALSA": lambda mem, t: alg.salsa_cms(int(mem), seed=t),
        "Tango2": lambda mem, t: alg.tango_cms(int(mem), seed=t, s=2),
        "Tango4": lambda mem, t: alg.tango_cms(int(mem), seed=t, s=4),
        "Tango8": lambda mem, t: alg.tango_cms(int(mem), seed=t, s=8),
    }
    return sweep(
        result, config.MEMORY_SWEEP[:3], factories,
        lambda sk, mem, t: nrmse_of(sk, synthetic_caida(length, "ny18", seed=t)),
        trials,
    )


def fig7b(length: int | None = None, trials: int | None = None,
          memory: int = 8 * 1024) -> ExperimentResult:
    """Tango-s vs SALSA across Zipf skews.

    Expected shape: as :func:`fig7a`'s.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="fig7b", title="Tango vs SALSA, Zipf",
        xlabel="zipf_skew", ylabel="NRMSE",
    )
    factories = {
        "SALSA": lambda skew, t: alg.salsa_cms(memory, seed=t),
        "Tango2": lambda skew, t: alg.tango_cms(memory, seed=t, s=2),
        "Tango4": lambda skew, t: alg.tango_cms(memory, seed=t, s=4),
        "Tango8": lambda skew, t: alg.tango_cms(memory, seed=t, s=8),
    }
    return sweep(
        result, _skews(), factories,
        lambda sk, skew, t: nrmse_of(sk, zipf_trace(length, skew, seed=t)),
        trials,
    )
