"""Figure benches: every entry of the experiment registry, regenerated.

One benchmark per id of :data:`repro.experiments.EXPERIMENTS` (the
paper's figures, the ablations, the extension and the scenario
sweeps), each printing its table(s) and writing them under
``results/``.  A figure's expected shape is in its function's
docstring.  Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_figures.py \
        --benchmark-only [-k fig10]
"""

import pytest

from _harness import bench_figure
from repro.experiments import EXPERIMENTS


@pytest.mark.parametrize("figure", sorted(EXPERIMENTS))
def test_figure(benchmark, figure):
    bench_figure(benchmark, figure)
