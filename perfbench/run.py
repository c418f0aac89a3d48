"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload stationary --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``src/``.
The stream is generated from ``--seed`` (``perfbench/gen.py``), then
fresh sketches run over it again and again for about ``--seconds``
seconds.  Every pass's final answers are checked; each wrong answer is
a failed operation.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(one counting pass for the per-layer counts, then passes that alternate
untraced and traced, so the tracing overhead shows).  Every timing is
host-corrected (``perfbench/host.py``); set-up time and peak memory are
measured in fresh interpreters.  See ``BENCHMARK.json`` for what each
workload exercises.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
# Load the program from cached bytecode, as its set-up children do, so
# set-up figures do not depend on the caller's environment.
sys.dont_write_bytecode = False

import numpy as np  # noqa: E402

from perfbench import checks, gen, host, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_RUNS = 7

_SETUP_CHILD = """
import sys, time
sys.path[:0] = [{src!r}, {root!r}]
from perfbench import host
ref = host.RefKernel()
before = ref.measure()
t0 = time.perf_counter()
from perfbench import workloads
workloads.build({name!r}, {seed})
raw = time.perf_counter() - t0
print(raw * host.factor(before, ref.measure()))
"""


def _child_env() -> dict:
    # Import from cached bytecode, as users do, whatever the caller's
    # environment says.
    return {k: v for k, v in os.environ.items()
            if k != "PYTHONDONTWRITEBYTECODE"}


def setup_seconds(name: str, seed: int) -> list[float]:
    """Host-corrected time from the first ``import repro`` to built
    sketches, each in a fresh interpreter."""
    code = _SETUP_CHILD.format(src=os.path.join(ROOT, "src"), root=ROOT,
                               name=name, seed=seed)
    # The first child compiles and caches; the median leaves it out.
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             env=_child_env(),
                             check=True, capture_output=True, text=True,
                             timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb(name: str, seed: int) -> float:
    """Peak resident memory one pass adds, from ``perfbench/memory.py``
    in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "memory.py"),
         name, str(seed)], cwd=ROOT, env=_child_env(), check=True,
        capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def end_to_end(passes, setups, arrivals, answers, counts, peak) -> dict:
    steps = [t for p in passes for t in p.steps()]
    return {
        "answer_s": (statistics.median(p.answer_s for p in passes), "s"),
        "ingest_items_per_s": (
            arrivals / statistics.median(p.ingest_s for p in passes), "1/s"),
        "batch_p90_ms": (float(np.percentile(steps, 90)) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "aae": (checks.aae(answers, counts), "count"),
        "are": (checks.are(answers, counts), "ratio"),
        "peak_rss_mb": (peak, "MB"),
    }


def per_layer(plain, traced, tracers, counted, counter, ref) -> dict:
    layers = [t.time_metrics() for t in tracers]
    out = {key: (statistics.median(m[key][0] for m in layers), unit)
           for key, (_value, unit) in layers[0].items()}
    out.update(counter.count_metrics())
    out["core.row.merge_events"] = (counted.merge_events, "count")
    out["core.row.saturations"] = (counted.saturations, "count")
    out["host.ref_ms"] = (statistics.median(ref.samples) * 1e3, "ms")
    out["raw.answer_s"] = (statistics.median(p.raw_answer_s for p in plain), "s")
    out["trace.overhead_s"] = (statistics.median(p.answer_s for p in traced)
                               - statistics.median(p.answer_s for p in plain), "s")
    return out


def write_spans(name: str, seed: int, tracers) -> None:
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump([t.dump() for t in tracers], fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(gen.STREAMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    name, seed = args.workload, args.seed

    setups = setup_seconds(name, seed) if not args.trace else []
    chunks = gen.STREAMS[name](seed)
    keys, counts = gen.exact_counts(chunks)
    expected = None
    if name == "sharded":
        expected = np.asarray(
            workloads.whole_stream_reference(chunks, seed).query_many(keys),
            dtype=np.int64)

    ref = host.RefKernel()
    # Warm-up: fill caches and finish lazy set-up before timing.
    workloads.run_pass(name, seed, chunks[:workloads.COMBINE_EVERY],
                       keys[:1024], ref)
    ref.samples.clear()

    failed = 0
    counter = counted = None
    if args.trace:
        # Counts are deterministic: one counting pass gives them, and
        # its times, which include the counting, are dropped.
        with Tracer(counting=True) as counter:
            counted = workloads.run_pass(name, seed, chunks, keys, ref)
        failed += checks.check_answers(counted.answers, keys, counts,
                                       counted.target, expected)
        counted.release()
        ref.samples.clear()

    plain, traced, tracers = [], [], []
    first_answers = None
    start = time.perf_counter()
    while True:
        if args.trace and len(traced) < len(plain):
            with Tracer() as tracer:
                p = workloads.run_pass(name, seed, chunks, keys, ref)
            traced.append(p)
            tracers.append(tracer)
        else:
            p = workloads.run_pass(name, seed, chunks, keys, ref)
            plain.append(p)
        failed += checks.check_answers(p.answers, keys, counts, p.target,
                                       expected)
        if first_answers is None:
            first_answers = p.answers
        p.release()
        elapsed = time.perf_counter() - start
        passes = len(plain) + len(traced)
        if (plain and (traced or not args.trace)
                and elapsed + elapsed / passes > args.seconds):
            break

    attempted = (len(plain) + len(traced) + (counted is not None)) * len(keys)
    print(f"{name} seed {seed}: {len(plain)} untraced, {len(traced)} "
          f"traced and {int(counted is not None)} counting passes of "
          f"{len(chunks)} chunks, {len(keys)} final answers each; "
          f"{len(ref.samples)} reference-kernel runs; {len(setups)} set-ups")
    if args.trace:
        metrics = per_layer(plain, traced, tracers, counted, counter, ref)
        write_spans(name, seed, tracers)
    else:
        metrics = end_to_end(plain, setups, len(chunks) * gen.CHUNK,
                             first_answers, counts,
                             peak_rss_mb(name, seed))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
