"""Registry mapping figure ids to experiment callables.

Every entry regenerates one figure (or panel group) of the paper's
evaluation as one or more :class:`ExperimentResult` tables.  The
figure bench (``benchmarks/bench_figures.py``) and the CLI
(``python -m repro.experiments <figure>``) both dispatch through here.
"""

from __future__ import annotations

from typing import Callable

from repro.experiments import (
    figures_ablation,
    figures_appendix,
    figures_competitors,
    figures_estimators,
    figures_extensions,
    figures_frameworks,
    figures_l1_l2,
    figures_scenarios,
    figures_synthetic,
    figures_tasks,
)
from repro.experiments.runner import ExperimentResult

#: figure id -> zero-arg callable returning ExperimentResult or a list.
EXPERIMENTS: dict[str, Callable] = {
    # Fig 4: counter-size configuration.
    "fig4a": figures_synthetic.fig4a,
    "fig4b": figures_synthetic.fig4b,
    # Fig 5: merge policy.
    "fig5a": figures_synthetic.fig5a,
    "fig5b": figures_synthetic.fig5b,
    # Fig 6: small fixed counters.
    "fig6a": figures_synthetic.fig6a,
    "fig6b": figures_synthetic.fig6b,
    # Fig 7: Tango.
    "fig7a": figures_synthetic.fig7a,
    "fig7b": figures_synthetic.fig7b,
    # Fig 8: competitors (each call emits speed/NRMSE/AAE/ARE panels).
    "fig8_ny18": lambda **kw: figures_competitors.fig8("ny18", **kw),
    "fig8_ch16": lambda **kw: figures_competitors.fig8("ch16", **kw),
    # Fig 9: error distribution.
    "fig9a": lambda **kw: figures_competitors.fig9("ny18", **kw),
    "fig9b": lambda **kw: figures_competitors.fig9("ch16", **kw),
    # Fig 10: L1 sketches, error + speed per dataset.
    "fig10a": lambda **kw: figures_l1_l2.fig10_error("ny18", **kw),
    "fig10b": lambda **kw: figures_l1_l2.fig10_error("ch16", **kw),
    "fig10c": lambda **kw: figures_l1_l2.fig10_error("univ2", **kw),
    "fig10d": lambda **kw: figures_l1_l2.fig10_error("youtube", **kw),
    "fig10e": lambda **kw: figures_l1_l2.fig10_speed("ny18", **kw),
    "fig10f": lambda **kw: figures_l1_l2.fig10_speed("ch16", **kw),
    "fig10g": lambda **kw: figures_l1_l2.fig10_speed("univ2", **kw),
    "fig10h": lambda **kw: figures_l1_l2.fig10_speed("youtube", **kw),
    # Fig 11: Count Sketch per dataset.
    "fig11a": lambda **kw: figures_l1_l2.fig11("ny18", **kw),
    "fig11b": lambda **kw: figures_l1_l2.fig11("ch16", **kw),
    "fig11c": lambda **kw: figures_l1_l2.fig11("univ2", **kw),
    "fig11d": lambda **kw: figures_l1_l2.fig11("youtube", **kw),
    # Fig 12: UnivMon.
    "fig12a": figures_frameworks.fig12a,
    "fig12b": figures_frameworks.fig12b,
    # Fig 13: Cold Filter (emits AAE + ARE panels).
    "fig13": figures_frameworks.fig13,
    # Fig 14: count distinct + heavy hitters.
    "fig14a": lambda **kw: figures_tasks.fig14_distinct("ny18", **kw),
    "fig14b": lambda **kw: figures_tasks.fig14_distinct("ch16", **kw),
    "fig14c": figures_tasks.fig14c,
    "fig14d": lambda **kw: figures_tasks.fig14_hitters("ny18", **kw),
    "fig14e": lambda **kw: figures_tasks.fig14_hitters("ch16", **kw),
    "fig14f": figures_tasks.fig14f,
    # Fig 15: top-k + change detection.
    "fig15a": figures_tasks.fig15a,
    "fig15b": figures_tasks.fig15b,
    "fig15c": figures_tasks.fig15c,
    "fig15d": figures_tasks.fig15d,
    # Fig 16: estimators.
    "fig16a": lambda **kw: figures_estimators.fig16_error("ny18", **kw),
    "fig16b": lambda **kw: figures_estimators.fig16_error("ch16", **kw),
    "fig16c": lambda **kw: figures_estimators.fig16_speed("ny18", **kw),
    "fig16d": lambda **kw: figures_estimators.fig16_speed("ch16", **kw),
    # Fig 17: splitting.
    "fig17a": lambda **kw: figures_estimators.fig17("ny18", **kw),
    "fig17b": lambda **kw: figures_estimators.fig17("ch16", **kw),
    # Appendix B.
    "fig19": figures_appendix.fig19,
    "fig20": figures_appendix.fig20,
    # Ablations beyond the paper's plots (design choices DESIGN.md
    # calls out).
    "ablation_encoding": figures_ablation.ablation_encoding,
    # Extension experiments: the related-work design space the paper
    # discusses in prose, measured (see figures_extensions).
    "ext_heavy_hitters": figures_extensions.ext_heavy_hitters,
    "ext_distinct": figures_extensions.ext_distinct,
    "ext_nitro": figures_extensions.ext_nitro,
    "ext_estimators": figures_extensions.ext_estimators,
    "ext_augmented": figures_extensions.ext_augmented,
    "ext_cuckoo": figures_extensions.ext_cuckoo,
    "ext_partitioned": figures_extensions.ext_partitioned,
    "ablation_hashing": figures_extensions.ablation_hashing,
    # Scenario workload sweeps (the stress lab beyond static traces;
    # they take the --scenario / --shards arguments).
    "scenario_error": figures_scenarios.scenario_error,
    "scenario_speed": figures_scenarios.scenario_speed,
}


def run(figure: str, **kwargs) -> list[ExperimentResult]:
    """Run one figure's experiment; always returns a list of results."""
    if figure not in EXPERIMENTS:
        raise KeyError(
            f"unknown figure {figure!r}; known: {sorted(EXPERIMENTS)}"
        )
    out = EXPERIMENTS[figure](**kwargs)
    return out if isinstance(out, list) else [out]
