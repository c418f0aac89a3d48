"""Every ``for_memory`` in the library, and every figure factory in
``experiments/algorithms.py``, builds a sketch within its byte budget
(``memory_bytes <= budget``) or raises ``ValueError``: never a sketch
over the budget it was sized for.  The SALSA row sketches build the
widest power of two that fits."""

import inspect

import pytest

from repro.core import (
    SalsaAeeCountMin,
    SalsaConservativeUpdate,
    SalsaCountMin,
    SalsaCountSketch,
    TangoCountMin,
)
from repro.core.sketch import RowSketch
from repro.experiments import algorithms
from repro.sketches import (
    AbcSketch,
    AeeSketch,
    ConservativeUpdateSketch,
    CountMinSketch,
    CountSketch,
    ElasticSketch,
    NitroSketch,
    PyramidSketch,
)
from repro.sketches.base import FixedWidth

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
    + [(cls, {}) for cls in (PyramidSketch, ElasticSketch, NitroSketch)]
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


ROW_CONFIGS = [(cls, kw) for cls, kw in CONFIGS if issubclass(cls, RowSketch)
               and not issubclass(cls, FixedWidth)]


@pytest.mark.parametrize(
    "cls, kwargs", ROW_CONFIGS,
    ids=[f"{cls.__name__}-{'-'.join(map(str, kw.values()))}"
         for cls, kw in ROW_CONFIGS])
def test_row_sketch_width_is_the_largest_power_of_two_that_fits(cls, kwargs):
    d = inspect.signature(cls.for_memory).parameters["d"].default
    cost = {}  # power-of-two width -> memory_bytes at that width
    w = 2
    while cost.setdefault(w, cls(w=w, d=d, **kwargs).memory_bytes) <= 4096:
        w *= 2
    wrong = []
    for budget in range(1, 4097):
        widest = max((w for w, b in cost.items() if b <= budget), default=None)
        try:
            got = cls.for_memory(budget, **kwargs).w
        except ValueError:
            got = None
        if got != widest:
            wrong.append((budget, got, widest))
    assert wrong == []


FACTORIES = [(name, kw) for name, f in inspect.getmembers(
                 algorithms, inspect.isfunction)
             if f.__module__ == algorithms.__name__
             for kw in ([{}, {"use_salsa": True}]
                        if "use_salsa" in inspect.signature(f).parameters
                        else [{}])]


@pytest.mark.parametrize(
    "name, kwargs", FACTORIES,
    ids=[name + ("-salsa" if kw else "") for name, kw in FACTORIES])
def test_figure_factories_never_build_over_budget(name, kwargs):
    over = []
    for budget in range(256, 128 * 1024 + 1, 256):
        try:
            sketch = getattr(algorithms, name)(budget, **kwargs)
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
