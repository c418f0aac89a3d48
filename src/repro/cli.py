"""Command-line interface: ``python -m repro <command>``.

Gives the library's main workflows a shell entry point:

* ``generate`` -- synthesize a trace (Zipf or a dataset substitute) and
  save it as ``.npz`` (exact) or ``.flows`` (packet-record format);
* ``profile``  -- print a trace file's workload profile;
* ``run``      -- stream a trace through a chosen sketch and report
  on-arrival error metrics plus memory actually used (``--batch-size``
  switches to the chunked batch pipeline; ``--shards N`` runs the
  scale-out path: sharded batched ingest, merge);
* ``speed``    -- measure per-item vs batched ingest throughput
  (``--shards N`` measures per-item ``update`` vs ``feed_stream``);
* ``window``   -- sliding-window sketching via epoch rotation
  (batched ingest split exactly at epoch boundaries);
* ``scenario`` -- the workload stress lab: ``list``/``describe`` the
  scenario generators, or ``run`` them through a sketch (optionally
  sharded or windowed) and print per-scenario error + throughput;
* ``topk``     -- report the top-k flows of a trace via a sketch+heap,
  with Fig 15's top-k accuracy;
* ``figure``   -- regenerate paper figures (thin alias for
  ``python -m repro.experiments``).

Every command is importable (:func:`main` takes ``argv``) so the test
suite drives it in-process.
"""

from __future__ import annotations

import argparse
import sys

from repro.core import DistributedSketch, WindowedSketch
from repro.experiments.algorithms import SKETCHES
from repro.metrics import OnArrivalCollector
from repro.streams import (
    DATASET_NAMES,
    dataset,
    describe,
    load_flows_as_trace,
    load_trace,
    save_trace,
    write_flows,
    zipf_trace,
)


def _load(path: str):
    """Load a trace from ``.npz`` or ``.flows`` by extension."""
    try:
        if path.endswith(".flows"):
            return load_flows_as_trace(path)
        return load_trace(path)
    except OSError as exc:
        raise SystemExit(
            f"error: cannot read {path}: {exc.strerror or exc}") from None


def _need_updates(trace, path: str, what: str) -> None:
    """Exit with an error when ``trace`` holds no updates to ``what``."""
    if len(trace) == 0:
        raise SystemExit(f"error: {path} holds no updates to {what}")


def _parse_memory(text: str) -> int:
    """``64K``/``2M``/plain-bytes memory sizes; anything else, or a
    size below one byte, exits with an error."""
    size = text.strip().upper()
    factor = {"K": 1024, "M": 1024 * 1024}.get(size[-1:], 1)
    try:
        memory = int(float(size[:-1] if factor > 1 else size) * factor)
    except (ValueError, OverflowError):
        memory = 0
    if memory < 1:
        raise SystemExit(f"error: --memory expects a size such as 64K, "
                         f"2M or 4096, got {text!r}")
    return memory


def _at_least(value: int, flag: str, low: int) -> int:
    """``value``, or exit with an error when it is below ``low``."""
    if value < low:
        raise SystemExit(f"error: {flag} must be >= {low}, got {value}")
    return value


def _target(args):
    """``(memory, build)`` for the selected sketch.

    ``build()`` makes a fresh ingest target: the sketch itself, or with
    ``--shards N`` a :class:`DistributedSketch` whose locals all come
    from the same seed, so all workers share hash functions -- the
    merge precondition.  A budget the sketch cannot be built in, or
    ``--shards`` over a sketch the wire codec cannot ship, exits with
    the library's error here, before any ingest.
    """
    memory = _parse_memory(args.memory)
    shards = _at_least(getattr(args, "shards", 1), "--shards", 1)

    def sketch(_family=None):
        return SKETCHES[args.sketch](memory, args.seed)

    try:
        sketch()
    except ValueError as exc:
        raise SystemExit(f"error: --memory {args.memory}: {exc}") from None
    if shards == 1:
        return memory, sketch

    def sharded():
        return DistributedSketch(sketch, workers=shards, seed=args.seed)

    try:
        sharded()
    except ValueError as exc:
        raise SystemExit(f"error: --shards {shards}: {exc}") from None
    return memory, sharded


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_generate(args) -> int:
    if args.kind == "zipf":
        trace = zipf_trace(args.length, args.skew, universe=args.universe,
                           seed=args.seed)
    else:
        trace = dataset(args.kind, args.length, seed=args.seed)
    if args.out.endswith(".flows"):
        path = write_flows(trace, args.out)
    else:
        path = save_trace(trace, args.out)
    print(f"wrote {len(trace):,} updates to {path}")
    return 0


def cmd_profile(args) -> int:
    print(describe(_load(args.trace)))
    return 0


def cmd_run(args) -> int:
    trace = _load(args.trace)
    memory, build = _target(args)
    _at_least(args.batch_size, "--batch-size", 1)
    sketch = build()
    if isinstance(sketch, DistributedSketch):
        return _run_sharded(args, trace, memory, sketch)
    _need_updates(trace, args.trace, "score on arrival")
    collector = OnArrivalCollector()
    if args.batch_size > 1:
        # Batched ingest: each chunk is queried before it is applied,
        # so estimates lag by at most one chunk relative to the exact
        # on-arrival loop (the sketch's final state is identical).
        for chunk in trace.chunks(args.batch_size):
            estimates = sketch.query_many(chunk)
            for x, est in zip(chunk.tolist(), estimates.tolist()):
                collector.observe(x, est)
            sketch.update_many(chunk)
    else:
        for x in trace:
            collector.observe(x, sketch.query(x))
            sketch.update(x)
    print(f"sketch:   {args.sketch} ({memory:,}B requested, "
          f"{sketch.memory_bytes:,}B used)")
    print(f"stream:   {trace.name} ({len(trace):,} updates)")
    if args.batch_size > 1:
        print(f"batch:    {args.batch_size} updates/chunk "
              f"(within-chunk estimates lag)")
    print(f"NRMSE:    {collector.nrmse():.3e}")
    print(f"RMSE:     {collector.rmse():.4f}")
    print(f"mean |e|: {collector.mean_absolute():.4f}")
    return 0


def _run_sharded(args, trace, memory: int, dist) -> int:
    """``run --shards N``: sharded batched ingest, merge, final errors.

    The trace goes through ``feed_stream`` in chunks of ``batch_size``
    per worker (``--batch-size 1``: the whole trace as one chunk).
    On-arrival collection does not distribute (a worker cannot see the
    global pre-arrival state), so the sharded run reports final-state
    per-flow errors of the *combined* sketch instead.
    """
    from repro.experiments.runner import ingest_seconds, score

    chunk = (args.batch_size * dist.workers if args.batch_size > 1
             else max(len(trace), 1))
    ingest_seconds(dist, trace.chunks(chunk), args.shard_policy, args.seed)
    flows, mean_abs, nrmse = score(dist, trace.items)
    print(f"sketch:   {args.sketch} ({memory:,}B requested, "
          f"{dist.locals[0].memory_bytes:,}B used per worker)")
    print(f"stream:   {trace.name} ({len(trace):,} updates)")
    print(f"sharding: {dist.workers} workers ({args.shard_policy}), "
          f"merged via ops.merge")
    print(f"flows:    {flows:,} distinct")
    print(f"NRMSE:    {nrmse:.3e}  (final state)")
    print(f"mean |e|: {mean_abs:.4f}")
    return 0


def cmd_speed(args) -> int:
    from repro.experiments.runner import ingest_seconds, per_item_seconds

    trace = _load(args.trace)
    memory, build = _target(args)
    _at_least(args.batch_size, "--batch-size", 2)
    _need_updates(trace, args.trace, "time")
    per_item = len(trace) / per_item_seconds(
        build(), trace, args.shard_policy, args.seed)
    batched = len(trace) / ingest_seconds(
        build(), trace.chunks(args.batch_size * args.shards),
        args.shard_policy, args.seed)
    print(f"sketch:    {args.sketch} ({memory:,}B)")
    if args.shards > 1:
        print(f"stream:    {trace.name} ({len(trace):,} updates, "
              f"{args.shards} shards/{args.shard_policy})")
        print(f"per-item:  {per_item:,.0f} items/s  (update)")
        print(f"batched:   {batched:,.0f} items/s "
              f"(feed_stream, batch={args.batch_size} per worker)")
    else:
        print(f"stream:    {trace.name} ({len(trace):,} updates)")
        print(f"per-item:  {per_item:,.0f} items/s")
        print(f"batched:   {batched:,.0f} items/s "
              f"(batch={args.batch_size})")
    print(f"speedup:   {batched / per_item:.2f}x")
    return 0


def cmd_window(args) -> int:
    """Sliding-window ingest: epoch rotation over the chosen sketch."""
    from repro.experiments.runner import (
        ingest_seconds,
        per_item_seconds,
        score,
    )

    trace = _load(args.trace)
    memory, build = _target(args)
    win = WindowedSketch(build, epoch=_at_least(args.epoch, "--epoch", 1))
    if _at_least(args.batch_size, "--batch-size", 1) > 1:
        ingest_seconds(win, trace.chunks(args.batch_size))
    else:
        per_item_seconds(win, trace)
    flows, mean_abs, _ = score(win, trace.items)
    lo, hi = win.window_span
    print(f"sketch:    {args.sketch} ({memory:,}B/epoch, "
          f"{win.memory_bytes:,}B resident)")
    print(f"stream:    {trace.name} ({len(trace):,} updates)")
    print(f"epoch:     {args.epoch:,} updates "
          f"({win.rotations} rotations, window covers {lo:,}..{hi:,})")
    if flows:
        print(f"window:    {flows:,} distinct flows, "
              f"mean |est - true| = {mean_abs:.4f}")
    return 0


def _parse_overrides(pairs) -> dict:
    """``--set k=v`` scenario parameter overrides (int/float/str).

    Integral floats (``1e5``, ``4096.0``) are coerced to int so they
    can land in count-typed parameters (period, universe, ...) without
    poisoning the generators' integer array arithmetic.
    """
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SystemExit(f"error: --set expects k=v, got {pair!r}")
        key, text = pair.split("=", 1)
        for cast in (int, float):
            try:
                value = cast(text)
                break
            except ValueError:
                continue
        else:
            value = text
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        overrides[key] = value
    return overrides


def _scenario_specs(args, overrides=None):
    """Resolve the requested scenario names to built generators.

    Validates names *and* parameter overrides for every requested
    scenario up front, so a multi-scenario run fails immediately and
    atomically instead of dying mid-table after partial results.
    """
    from repro.streams.scenarios import SCENARIOS, make_scenario

    names = args.names or sorted(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise SystemExit(
            f"error: unknown scenario(s) {unknown}; "
            f"known: {sorted(SCENARIOS)}")
    built = []
    for name in names:
        try:
            built.append((name, make_scenario(name, **(overrides or {}))))
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"error: {name}: {exc}")
    return built


def cmd_scenario_list(args) -> int:
    from repro.streams.scenarios import SCENARIOS

    print(f"{'scenario':<12} description")
    print("-" * 64)
    for name in sorted(SCENARIOS):
        print(f"{name:<12} {SCENARIOS[name].summary()}")
    print("\n(`repro scenario describe <name>` for parameters; "
          "`repro scenario run` to measure)")
    return 0


def cmd_scenario_describe(args) -> int:
    from repro.core.windowed import WindowedSketch
    from repro.streams.model import Trace

    for name, scenario in _scenario_specs(args, _parse_overrides(args.set)):
        print(f"== {name} ==")
        print(scenario.describe())
        print()
    # The chunk semantics every scenario feeds into, straight from the
    # layer docstrings (kept accurate there, surfaced here).
    print("chunk semantics (Trace.chunks):")
    print("  " + (Trace.chunks.__doc__ or "").strip().splitlines()[0])
    print("epoch semantics (WindowedSketch.update_many):")
    print("  " + (WindowedSketch.update_many.__doc__
                  or "").strip().splitlines()[0])
    return 0


def cmd_scenario_run(args) -> int:
    """Run each scenario through a sketch; print error + throughput.

    Plain mode feeds the chunk stream through ``update_many`` and
    reports final-state errors against the exact truth.
    ``--shards N`` routes chunks through ``DistributedSketch.feed_stream``
    and measures the merged sketch; ``--epoch N`` feeds a
    ``WindowedSketch`` and reports the trailing-window error instead
    (the two modes are mutually exclusive).
    """
    import numpy as np

    from repro.experiments.runner import ingest_seconds, score

    memory, build = _target(args)
    if args.shards > 1 and args.epoch:
        raise SystemExit(
            "error: --shards and --epoch are mutually exclusive")
    _at_least(args.chunk, "--chunk", 1)
    _at_least(args.length, "--length", 1)
    if args.epoch < 0:
        raise SystemExit(
            f"error: --epoch must be >= 1 (0 = off), got {args.epoch}")
    scenarios = _scenario_specs(args, _parse_overrides(args.set))

    mode = (f"{args.shards} shards ({args.shard_policy})" if args.shards > 1
            else f"windowed, epoch={args.epoch:,}" if args.epoch
            else "single sketch")
    print(f"sketch:   {args.sketch} ({memory:,}B), {mode}")
    print(f"stream:   length={args.length:,}, chunk={args.chunk:,}, "
          f"seed={args.seed}")
    if args.epoch:
        header = (f"{'scenario':<12} {'updates':>10} {'distinct':>9} "
                  f"{'items/s':>12} {'rotations':>9} {'window|e|':>10}")
    else:
        header = (f"{'scenario':<12} {'updates':>10} {'distinct':>9} "
                  f"{'items/s':>12} {'AAE':>10} {'NRMSE':>10}")
    print(header)
    print("-" * len(header))

    for name, scenario in scenarios:
        # Generate once (outside the clock); the streamed truth gives
        # the whole-stream update and distinct counts.
        chunks = []
        truth = None
        for chunk, truth in scenario.stream(args.length, args.chunk,
                                            args.seed):
            chunks.append(chunk)
        target = (WindowedSketch(build, epoch=args.epoch) if args.epoch
                  else build())
        rate = truth.n / ingest_seconds(target, chunks, args.shard_policy,
                                        args.seed)
        _, mean_abs, nrmse = score(target, np.concatenate(chunks))
        last = (f"{target.rotations:>9,} {mean_abs:>10.4f}" if args.epoch
                else f"{mean_abs:>10.4f} {nrmse:>10.3e}")
        print(f"{name:<12} {truth.n:>10,} {truth.distinct:>9,} "
              f"{rate:>12,.0f} {last}")
    return 0


def cmd_topk(args) -> int:
    from repro.tasks.topk import topk_accuracy, track_topk

    trace = _load(args.trace)
    memory, build = _target(args)
    _at_least(args.k, "-k", 1)
    tracker, truth = track_topk(build(), trace, args.k)
    if len(truth) < args.k:
        raise SystemExit(f"error: -k {args.k} exceeds the {len(truth):,} "
                         f"distinct flows in {args.trace}")
    top = tracker.top(args.k)
    print(f"top-{args.k} by {args.sketch} ({memory:,}B):")
    print(f"{'rank':>4} {'item':>20} {'estimate':>10} {'true':>10}")
    for rank, item in enumerate(top, 1):
        print(f"{rank:>4} {item:>20} {tracker.estimate(item):>10.0f} "
              f"{truth.get(item, 0):>10}")
    print(f"accuracy: {topk_accuracy(top, truth, args.k):.3f} "
          f"(Fig 15, ties at the k'th count included)")
    return 0


def cmd_figure(args) -> int:
    from repro.experiments.__main__ import main as experiments_main

    argv = list(args.figures)
    for flag in ("jobs", "scenario", "shards"):
        value = getattr(args, flag)
        if value is not None:
            argv = [f"--{flag}", str(value)] + argv
    try:
        return experiments_main(argv)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SALSA (ICDE 2021) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize and save a trace")
    gen.add_argument("kind", choices=("zipf",) + DATASET_NAMES)
    gen.add_argument("out", help="output path (.npz or .flows)")
    gen.add_argument("--length", type=int, default=100_000)
    gen.add_argument("--skew", type=float, default=1.0,
                     help="Zipf skew (zipf only)")
    gen.add_argument("--universe", type=int, default=1 << 20)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_generate)

    prof = sub.add_parser("profile", help="print a trace's profile")
    prof.add_argument("trace", help=".npz or .flows file")
    prof.set_defaults(func=cmd_profile)

    run = sub.add_parser("run", help="on-arrival error of a sketch")
    run.add_argument("trace", help=".npz or .flows file")
    run.add_argument("--sketch", choices=sorted(SKETCHES),
                     default="salsa-cms")
    run.add_argument("--memory", default="64K",
                     help="budget, e.g. 8K / 2M / 4096")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--batch-size", type=int, default=1,
                     help="ingest in chunks of this many updates "
                          "(1 = exact per-item on-arrival loop)")
    run.add_argument("--shards", type=int, default=1,
                     help="shard across this many workers and merge "
                          "(reports final-state errors; SALSA only)")
    run.add_argument("--shard-policy", choices=("hash", "round_robin"),
                     default="hash")
    run.set_defaults(func=cmd_run)

    speed = sub.add_parser(
        "speed", help="compare per-item vs batched ingest throughput")
    speed.add_argument("trace", help=".npz or .flows file")
    speed.add_argument("--sketch", choices=sorted(SKETCHES),
                       default="salsa-cms")
    speed.add_argument("--memory", default="64K")
    speed.add_argument("--seed", type=int, default=0)
    speed.add_argument("--batch-size", type=int, default=4096)
    speed.add_argument("--shards", type=int, default=1,
                       help="measure sharded ingest: per-item update vs "
                            "feed_stream (SALSA only)")
    speed.add_argument("--shard-policy", choices=("hash", "round_robin"),
                       default="hash")
    speed.set_defaults(func=cmd_speed)

    win = sub.add_parser(
        "window", help="sliding-window (epoch-rotating) sketching")
    win.add_argument("trace", help=".npz or .flows file")
    win.add_argument("--sketch", choices=sorted(SKETCHES),
                     default="salsa-cms")
    win.add_argument("--memory", default="64K",
                     help="budget per epoch sketch (two resident)")
    win.add_argument("--epoch", type=int, default=10_000,
                     help="updates per epoch (window covers 1-2 epochs)")
    win.add_argument("--seed", type=int, default=0)
    win.add_argument("--batch-size", type=int, default=4096,
                     help="ingest in chunks of this many updates "
                          "(1 = per-item loop; identical final state)")
    win.set_defaults(func=cmd_window)

    scen = sub.add_parser(
        "scenario", help="workload stress lab: list/describe/run")
    scen_sub = scen.add_subparsers(dest="action", required=True)

    scen_list = scen_sub.add_parser(
        "list", help="list scenario generators")
    scen_list.set_defaults(func=cmd_scenario_list)

    scen_desc = scen_sub.add_parser(
        "describe", help="show a scenario's docs and parameters")
    scen_desc.add_argument("names", nargs="*",
                           help="scenario names (default: all)")
    scen_desc.add_argument("--set", action="append", metavar="K=V",
                           help="override a generator parameter")
    scen_desc.set_defaults(func=cmd_scenario_describe)

    scen_run = scen_sub.add_parser(
        "run", help="stream scenarios through a sketch; report "
                    "error + throughput per scenario")
    scen_run.add_argument("names", nargs="*",
                          help="scenario names (default: all)")
    scen_run.add_argument("--sketch", choices=sorted(SKETCHES),
                          default="salsa-cms")
    scen_run.add_argument("--memory", default="64K",
                          help="budget, e.g. 8K / 2M / 4096")
    scen_run.add_argument("--length", type=int, default=200_000,
                          help="updates per scenario stream")
    scen_run.add_argument("--chunk", type=int, default=8192,
                          help="updates per generated batch")
    scen_run.add_argument("--seed", type=int, default=0)
    scen_run.add_argument("--set", action="append", metavar="K=V",
                          help="override a generator parameter "
                               "(applies to every scenario run)")
    scen_run.add_argument("--shards", type=int, default=1,
                          help="route chunks to this many workers "
                               "(feed_stream) and measure the merge")
    scen_run.add_argument("--shard-policy",
                          choices=("hash", "round_robin"),
                          default="hash")
    scen_run.add_argument("--epoch", type=int, default=0,
                          help="> 0: feed a WindowedSketch with this "
                               "epoch and report trailing-window error")
    scen_run.set_defaults(func=cmd_scenario_run)

    topk = sub.add_parser("topk", help="report the heaviest flows")
    topk.add_argument("trace", help=".npz or .flows file")
    topk.add_argument("-k", type=int, default=10)
    topk.add_argument("--sketch", choices=sorted(SKETCHES),
                      default="salsa-cus")
    topk.add_argument("--memory", default="64K")
    topk.add_argument("--seed", type=int, default=0)
    topk.set_defaults(func=cmd_topk)

    fig = sub.add_parser("figure", help="regenerate paper figures")
    fig.add_argument("figures", nargs="*",
                     help="figure ids (or --list via repro.experiments)")
    fig.add_argument("--jobs", type=int, default=None,
                     help="worker processes for independent sweep cells")
    fig.add_argument("--scenario", default=None,
                     help="comma-separated scenario names scoping the "
                          "scenario_* figures")
    fig.add_argument("--shards", type=int, default=None,
                     help="shard every scenario sweep cell this wide")
    fig.set_defaults(func=cmd_figure)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
