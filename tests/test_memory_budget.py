"""Every ``for_memory`` in the library builds a sketch within its byte
budget (``memory_bytes <= budget``) or raises ``ValueError``: never a
sketch over the budget it was sized for."""

import pytest

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

CONFIGS = (
    [(cls, {"s": s, "encoding": encoding})
     for cls in (SalsaCountMin, SalsaConservativeUpdate, SalsaCountSketch)
     for s in (2, 4, 8, 16) for encoding in ("simple", "compact")]
    + [(cls, {"s": s}) for cls in (SalsaAeeCountMin, TangoCountMin, AbcSketch)
       for s in (2, 4, 8, 16)]
    + [(cls, {"counter_bits": bits})
       for cls in (CountMinSketch, ConservativeUpdateSketch, CountSketch,
                   AeeSketch)
       for bits in (4, 8, 16, 32)]
    + [(cls, {}) for cls in (PyramidSketch, ElasticSketch, NitroSketch,
                             UnivMon, ColdFilter)]
)


@pytest.mark.parametrize(
    "cls, kwargs", CONFIGS,
    ids=[f"{cls.__name__}-{'-'.join(map(str, kw.values()))}"
         for cls, kw in CONFIGS])
def test_for_memory_never_builds_over_budget(cls, kwargs):
    over = []
    for budget in range(1, 4097):
        try:
            sketch = cls.for_memory(budget, **kwargs)
        except ValueError:
            continue
        if sketch.memory_bytes > budget:
            over.append((budget, sketch.memory_bytes))
    assert over == []


@pytest.mark.parametrize("cls, budget, kwargs", [
    (SalsaCountMin, 10, {"s": 4}),
    (SalsaCountMin, 551, {"encoding": "compact"}),
    (SalsaCountSketch, 1329, {"s": 16, "encoding": "compact"}),
    (TangoCountMin, 19, {}),
])
def test_row_sketch_takes_the_widest_power_of_two_that_fits(cls, budget,
                                                            kwargs):
    sketch = cls.for_memory(budget, **kwargs)
    assert sketch.memory_bytes <= budget
    wider = cls(w=2 * sketch.w, d=sketch.d, **kwargs)
    assert wider.memory_bytes > budget


@pytest.mark.parametrize("build", [
    lambda: ElasticSketch.for_memory(37),
    lambda: PyramidSketch.for_memory(3),
    lambda: SalsaCountMin.for_memory(3, s=2),
])
def test_a_budget_below_the_smallest_sketch_raises(build):
    with pytest.raises(ValueError):
        build()
