"""The catalogue of named sketches sized to a memory budget.

Each factory takes a memory budget in bytes (encoding overheads
included, as the paper's x-axes do) and a seed, and returns a fresh
sketch configured exactly as in section VI: d=4 for CMS/CUS, d=5 for
CS, s=8 for SALSA, 32-bit baselines, authors' defaults for the
competitors.  The figures call these factories, and :data:`SKETCHES`
hands the same ones to the CLI by name, so ``repro run --sketch
pyramid`` and a Fig 8 cell build the same sketch.
"""

from __future__ import annotations

from repro.core import (
    SalsaAeeCountMin,
    SalsaConservativeUpdate,
    SalsaCountMin,
    SalsaCountSketch,
    TangoCountMin,
)
from repro.sketches import (
    AbcSketch,
    AeeSketch,
    ColdFilter,
    ConservativeUpdateSketch,
    CountMinSketch,
    CountSketch,
    ElasticSketch,
    NitroSketch,
    PyramidSketch,
    UnivMon,
)
from repro.sketches.base import width_for_memory


def baseline_cms(memory: int, seed: int = 0, counter_bits: int = 32):
    """32-bit (or smaller) fixed-width CMS, d=4."""
    return CountMinSketch.for_memory(memory, d=4, counter_bits=counter_bits,
                                     seed=seed)


def baseline_cus(memory: int, seed: int = 0, counter_bits: int = 32):
    """Fixed-width CUS, d=4."""
    return ConservativeUpdateSketch.for_memory(
        memory, d=4, counter_bits=counter_bits, seed=seed
    )


def baseline_cs(memory: int, seed: int = 0):
    """32-bit fixed-width CS, d=5."""
    return CountSketch.for_memory(memory, d=5, seed=seed)


def salsa_cms(memory: int, seed: int = 0, s: int = 8, merge: str = "max"):
    """SALSA CMS with the paper's defaults (s=8, simple encoding)."""
    return SalsaCountMin.for_memory(memory, d=4, s=s, merge=merge, seed=seed)


def salsa_cus(memory: int, seed: int = 0, s: int = 8):
    """SALSA CUS."""
    return SalsaConservativeUpdate.for_memory(memory, d=4, s=s, seed=seed)


def salsa_cs(memory: int, seed: int = 0, s: int = 8):
    """SALSA CS (sign-magnitude, sum-merge)."""
    return SalsaCountSketch.for_memory(memory, d=5, s=s, seed=seed)


def tango_cms(memory: int, seed: int = 0, s: int = 8):
    """Tango CMS."""
    return TangoCountMin.for_memory(memory, d=4, s=s, seed=seed)


def pyramid(memory: int, seed: int = 0):
    """Pyramid Sketch with the authors' delta=4 configuration (4-bit
    first-layer counters; upper layers 2 flag + 2 carry bits)."""
    return PyramidSketch.for_memory(memory, d=4, delta=4, seed=seed)


def abc(memory: int, seed: int = 0):
    """ABC with the authors' 8-bit start."""
    return AbcSketch.for_memory(memory, d=4, s=8, seed=seed)


def aee_max_accuracy(memory: int, seed: int = 0):
    """AEE MaxAccuracy (8-bit estimators, downsample on overflow)."""
    return AeeSketch.for_memory(memory, d=4, counter_bits=8,
                                mode="accuracy", seed=seed)


def aee_max_speed(memory: int, seed: int = 0):
    """AEE MaxSpeed (8-bit estimators, proactive downsampling)."""
    return AeeSketch.for_memory(memory, d=4, counter_bits=8,
                                mode="speed", seed=seed)


def salsa_aee(memory: int, seed: int = 0, downsample_first: int = 0,
              split: bool = False):
    """SALSA AEE with the paper's delta = 4*delta_est = 0.001."""
    return SalsaAeeCountMin.for_memory(
        memory, d=4, s=8, seed=seed, delta=0.001,
        downsample_first=downsample_first, split=split,
    )


def nitro(memory: int, seed: int = 0, p: float = 0.1):
    """NitroSketch over d=5 Count Sketch rows, each row update sampled
    with probability ``p``."""
    return NitroSketch.for_memory(memory, d=5, p=p, seed=seed)


def elastic(memory: int, seed: int = 0):
    """Elastic Sketch with the Elastic paper's 25% heavy / 75% light
    split."""
    return ElasticSketch.for_memory(memory, seed=seed)


def cold_filter(memory: int, seed: int = 0, use_salsa: bool = False):
    """Cold Filter: half the memory to the 4-bit stage-1 filter, half
    to the stage-2 CUS (baseline or SALSA)."""
    stage1_budget = memory // 2
    stage2_budget = memory - stage1_budget
    w1 = width_for_memory(stage1_budget, d=1, counter_bits=4)
    if use_salsa:
        stage2 = salsa_cus(stage2_budget, seed=seed + 1)
    else:
        stage2 = baseline_cus(stage2_budget, seed=seed + 1)
    return ColdFilter(w1=w1, stage2=stage2, d1=3, stage1_bits=4, seed=seed)


def univmon(memory: int, seed: int = 0, use_salsa: bool = False,
            levels: int = 16, salsa_s: int = 8):
    """UnivMon with the paper's 16 levels of d=5 CS + 100-item heaps.

    ``use_salsa`` swaps the level sketches for SALSA CS of equal
    per-level memory.
    """
    per_level = memory // levels
    if use_salsa:
        w = width_for_memory(per_level, d=5, counter_bits=salsa_s,
                             overhead_bits=1.0)
        factory = lambda level: SalsaCountSketch(
            w=w, d=5, s=salsa_s, seed=seed + 7919 * (level + 1)
        )
    else:
        w = width_for_memory(per_level, d=5, counter_bits=32)
        factory = lambda level: CountSketch(
            w=w, d=5, seed=seed + 7919 * (level + 1)
        )
    return UnivMon(w=w, d=5, levels=levels, heap_size=100, seed=seed,
                   cs_factory=factory)


#: name -> ``factory(memory, seed)``: the sketches ``repro run``,
#: ``speed``, ``window``, ``scenario run`` and ``topk`` offer.
SKETCHES = {
    "cms": baseline_cms,
    "cus": baseline_cus,
    "cs": baseline_cs,
    "salsa-cms": salsa_cms,
    "salsa-cus": salsa_cus,
    "salsa-cs": salsa_cs,
    "pyramid": pyramid,
    "nitro": nitro,
    "elastic": elastic,
    "univmon": univmon,
    "coldfilter": cold_filter,
}
