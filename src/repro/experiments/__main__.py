"""CLI entry point: ``python -m repro.experiments <figure> [...]``."""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.registry import EXPERIMENTS, run
from repro.experiments.report import emit
from repro.experiments.runner import using_jobs
from repro.experiments.scenarios import using_scenario_grid


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate SALSA paper figures as text tables.",
    )
    parser.add_argument("figures", nargs="*",
                        help="figure ids (e.g. fig10a); 'all' for everything")
    parser.add_argument("--list", action="store_true",
                        help="list known figure ids and exit")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for independent "
                             "(sketch, trace, seed) sweep cells "
                             "(default 1; accuracy tables are "
                             "identical either way, and wall-clock "
                             "speed sweeps always run serial)")
    parser.add_argument("--scenario", default=None,
                        help="comma-separated scenario names scoping "
                             "the scenario_* figures (default: all; "
                             "see `repro scenario list`)")
    parser.add_argument("--shards", type=int, default=None,
                        help="route every scenario sweep cell through "
                             "this many DistributedSketch workers and "
                             "measure the merged sketch")
    args = parser.parse_args(argv)

    if args.list or not args.figures:
        for fig in sorted(EXPERIMENTS):
            print(fig)
        return 0

    targets = (sorted(EXPERIMENTS) if args.figures == ["all"]
               else args.figures)
    scenarios = args.scenario.split(",") if args.scenario else None
    with using_jobs(args.jobs), using_scenario_grid(scenarios, args.shards):
        for fig in targets:
            start = time.perf_counter()
            for result in run(fig):
                emit(result)
            print(f"[{fig}: {time.perf_counter() - start:.1f}s]",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
