"""repro: a full reproduction of *SALSA: Self-Adjusting Lean Streaming
Analytics* (Ben Basat, Einziger, Mitzenmacher, Vargaftik -- ICDE 2021).

Public API highlights
---------------------
SALSA sketches (the paper's contribution):

>>> from repro import SalsaCountMin
>>> sketch = SalsaCountMin.for_memory(64 * 1024)   # 64KB, s=8, d=4
>>> sketch.update(item=42)
>>> sketch.query(42) >= 1
True

Baselines and competitors live in :mod:`repro.sketches`; workload
generators in :mod:`repro.streams`; tasks (heavy hitters, top-k, count
distinct, entropy, moments, change detection) in :mod:`repro.tasks`;
the figure-regeneration harness in :mod:`repro.experiments`.
"""

# repro.sketches first: its fixed-width CMS, CUS and AEE import repro.core,
# whose modules import repro.sketches.base, and that order is the one
# without a cycle.
from repro.sketches import (
    AbcSketch,
    AeeSketch,
    ColdFilter,
    ConservativeUpdateSketch,
    CountMinSketch,
    CountSketch,
    PyramidSketch,
    UnivMon,
    ZeroSketch,
)
from repro.core import (
    SalsaAeeCountMin,
    SalsaConservativeUpdate,
    SalsaCountMin,
    SalsaCountSketch,
    TangoCountMin,
    ops,
)
from repro.streams import Trace, dataset, zipf_trace

__version__ = "1.0.0"

__all__ = [
    "SalsaCountMin",
    "SalsaConservativeUpdate",
    "SalsaCountSketch",
    "SalsaAeeCountMin",
    "TangoCountMin",
    "ops",
    "CountMinSketch",
    "ConservativeUpdateSketch",
    "CountSketch",
    "PyramidSketch",
    "AbcSketch",
    "AeeSketch",
    "ColdFilter",
    "UnivMon",
    "ZeroSketch",
    "Trace",
    "zipf_trace",
    "dataset",
    "__version__",
]
