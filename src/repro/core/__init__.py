"""The SALSA core: self-adjusting counter arrays and SALSA-fied sketches.

* :class:`SalsaRow`, one row of self-adjusting counters held as a
  value and a merge level per slot, charging the paper's simple
  (1 bit/counter) or compact (~0.594 bits/counter, Appendix A:
  :func:`layout_count`, :func:`encoding_bits`) encoding, which is also
  its wire format;
* :class:`TangoRow` for fine-grained merging;
* the SALSA sketches of section V: :class:`SalsaCountMin`,
  :class:`TangoCountMin`, :class:`SalsaConservativeUpdate`,
  :class:`SalsaCountSketch`;
* sketch algebra (:func:`merge`, :func:`subtract`);
* the estimator integration :class:`SalsaAeeCountMin`;
* the conclusion's proposed applications: :class:`LpSampler` (Lp
  sampling over SALSA CS) and :class:`WindowedSketch` (epoch-rotating
  sliding windows).
"""

from repro.core.compact import encoding_bits, layout_count
from repro.core.row import COMPACT, MAX, SIMPLE, SUM, SalsaRow
from repro.core.tango import TangoRow
from repro.core.salsa_cms import SalsaCountMin, TangoCountMin
from repro.core.salsa_cus import SalsaConservativeUpdate
from repro.core.salsa_cs import SalsaCountSketch
from repro.core.salsa_aee import SalsaAeeCountMin
from repro.core.lp_sampler import LpSampler, l1_sampler, l2_sampler
from repro.core.windowed import WindowedSketch
from repro.core.distributed import DistributedSketch, shard
from repro.core import ops

__all__ = [
    "layout_count",
    "encoding_bits",
    "SalsaRow",
    "TangoRow",
    "SUM",
    "MAX",
    "SIMPLE",
    "COMPACT",
    "SalsaCountMin",
    "TangoCountMin",
    "SalsaConservativeUpdate",
    "SalsaCountSketch",
    "SalsaAeeCountMin",
    "LpSampler",
    "l1_sampler",
    "l2_sampler",
    "WindowedSketch",
    "DistributedSketch",
    "shard",
    "ops",
]
