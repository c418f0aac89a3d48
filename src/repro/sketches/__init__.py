"""Baseline and competitor sketches (the fixed-width world).

* :class:`CountMinSketch`, :class:`ConservativeUpdateSketch`,
  :class:`CountSketch` -- the classic sketches SALSA extends, with
  configurable fixed counter widths (saturating when small).
* :class:`PyramidSketch`, :class:`AbcSketch` -- the variable-counter
  competitors of Figs 8 and 9.
* :class:`AeeSketch` -- the Additive Error Estimator baseline of Fig 16.
* :class:`ColdFilter` -- the two-stage framework of Fig 13.
* :class:`UnivMon` -- the universal sketch of Fig 12.
* :class:`ZeroSketch` -- Appendix B's "0" algorithm.

Related-work algorithms cited by the paper, used by the extension
experiments (``repro.experiments.figures_extensions``):

* :class:`SpaceSaving`, :class:`MisraGries` -- counter-based heavy
  hitters [48].
* :class:`MorrisCounter`, :class:`MorrisCountMin` -- probabilistic
  counter compression [26].
* :class:`NitroSketch` -- sampled row updates for software speed [18].
* :class:`RandomizedCounterSharing` -- single-counter updates [21].
* :class:`HyperLogLog` -- register-based count distinct.
* :class:`AugmentedSketch` -- exact hot-item filter over a sketch [8].
* :class:`CuckooCounter` -- exact cuckoo-hashed flow entries [47].
"""

from repro.sketches.base import (
    BatchFrequencySketch,
    BatchOpsMixin,
    FrequencySketch,
    StreamModel,
    aggregate_batch,
    as_batch,
    batch_sum_fits,
    collapse_runs,
    median,
    width_for_memory,
)
from repro.sketches.count_min import CountMinSketch
from repro.sketches.conservative_update import ConservativeUpdateSketch
from repro.sketches.count_sketch import CountSketch
from repro.sketches.zero import ZeroSketch
from repro.sketches.pyramid import PyramidSketch
from repro.sketches.abc_sketch import AbcSketch
from repro.sketches.aee import AeeSketch
from repro.sketches.cold_filter import ColdFilter
from repro.sketches.univmon import UnivMon
from repro.sketches.spacesaving import SpaceSaving, MisraGries
from repro.sketches.morris import MorrisCounter, MorrisCountMin
from repro.sketches.nitrosketch import NitroSketch
from repro.sketches.rcs import RandomizedCounterSharing
from repro.sketches.hyperloglog import HyperLogLog
from repro.sketches.augmented import AugmentedSketch
from repro.sketches.cuckoo_counter import CuckooCounter
from repro.sketches.elastic import ElasticSketch
from repro.sketches.counter_tree import CounterTree

__all__ = [
    "FrequencySketch",
    "BatchFrequencySketch",
    "BatchOpsMixin",
    "StreamModel",
    "median",
    "width_for_memory",
    "as_batch",
    "aggregate_batch",
    "collapse_runs",
    "batch_sum_fits",
    "CountMinSketch",
    "ConservativeUpdateSketch",
    "CountSketch",
    "ZeroSketch",
    "PyramidSketch",
    "AbcSketch",
    "AeeSketch",
    "ColdFilter",
    "UnivMon",
    "SpaceSaving",
    "MisraGries",
    "MorrisCounter",
    "MorrisCountMin",
    "NitroSketch",
    "RandomizedCounterSharing",
    "HyperLogLog",
    "AugmentedSketch",
    "CuckooCounter",
    "ElasticSketch",
    "CounterTree",
]
