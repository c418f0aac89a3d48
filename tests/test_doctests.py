"""Run the doctests embedded in the library's docstrings.

Every public class carries a worked example; executing them keeps the
documentation honest.
"""

import doctest

import pytest

import repro
import repro.core.compact
import repro.core.row
import repro.core.tango
import repro.core.sketch
import repro.core.salsa_cms
import repro.core.salsa_cus
import repro.core.salsa_cs
import repro.core.serialize
import repro.metrics.errors
import repro.sketches.count_min
import repro.sketches.conservative_update
import repro.sketches.count_sketch
import repro.sketches.spacesaving
import repro.sketches.morris
import repro.sketches.nitrosketch
import repro.sketches.rcs
import repro.sketches.hyperloglog
import repro.sketches.augmented
import repro.sketches.cuckoo_counter
import repro.sketches.elastic
import repro.sketches.counter_tree
import repro.core.lp_sampler
import repro.core.windowed
import repro.core.distributed
import repro.hashing.tabulation
import repro.tasks.heavy_hitters
import repro.tasks.hierarchical

import reference_rows

_MODULES = [
    repro,
    repro.core.compact,
    repro.core.row,
    repro.core.tango,
    repro.core.sketch,
    repro.core.salsa_cms,
    repro.core.salsa_cus,
    repro.core.salsa_cs,
    repro.core.serialize,
    repro.metrics.errors,
    repro.sketches.count_min,
    repro.sketches.conservative_update,
    repro.sketches.count_sketch,
    repro.sketches.spacesaving,
    repro.sketches.morris,
    repro.sketches.nitrosketch,
    repro.sketches.rcs,
    repro.sketches.hyperloglog,
    repro.sketches.augmented,
    repro.sketches.cuckoo_counter,
    repro.sketches.elastic,
    repro.sketches.counter_tree,
    repro.core.lp_sampler,
    repro.core.windowed,
    repro.core.distributed,
    repro.hashing.tabulation,
    repro.tasks.heavy_hitters,
    repro.tasks.hierarchical,
    reference_rows,   # the paper's Fig 1 encoding, as the tests' oracle
]


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} has no doctests"
    assert result.failed == 0
