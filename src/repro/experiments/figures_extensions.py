"""Extension experiments beyond the paper's plots.

The paper's related-work section cites a design space (counter-based
heavy hitters, probabilistic estimators, sampled updates, exact cuckoo
tables) without measuring SALSA against most of it.  These experiments
fill that in using the library's from-scratch implementations, so each
claim the paper makes in prose ("Randomized Counter Sharing ... only
updates a random one", "such solutions cannot capture the sizes of the
heavy hitters", ...) gets a measured counterpart.

Each function regenerates one ``results/ext_*.txt`` table through the
same plumbing as the paper figures, and ``benchmarks/bench_figures.py``
benches them with every other registered figure.
"""

from __future__ import annotations

from repro.core import SalsaCountSketch
from repro.experiments import algorithms as alg
from repro.experiments import config
from repro.experiments.runner import (
    ExperimentResult,
    nrmse_of,
    run_updates,
    sweep,
    throughput_mops,
)
from repro.metrics import relative_error
from repro.sketches import (
    AugmentedSketch,
    CounterTree,
    CountMinSketch,
    CuckooCounter,
    ElasticSketch,
    HyperLogLog,
    MisraGries,
    MorrisCountMin,
    NitroSketch,
    RandomizedCounterSharing,
    SpaceSaving,
)
from repro.streams import synthetic_caida, zipf_trace
from repro.tasks.heavy_hitters import heavy_hitter_are
from repro.tasks import distinct_count_baseline, distinct_count_salsa

#: Entry cost used to size the counter-based algorithms at equal memory.
_SS_ENTRY = 24


# ----------------------------------------------------------------------
# ext_heavy_hitters: SALSA vs the counter-based family
# ----------------------------------------------------------------------
def _hh_are(sketch, trace, phi: float) -> float:
    truth = run_updates(sketch, trace)
    return heavy_hitter_are(sketch.query, truth, phi)


def ext_heavy_hitters(length: int | None = None, trials: int | None = None,
                      phi: float = 1e-3) -> ExperimentResult:
    """Heavy-hitter size ARE vs memory: sketch vs counter algorithms.

    Expectation: the counter-based algorithms win at tiny memory
    (their entries are exact) but SALSA closes the gap as soon as
    enough counters fit, and only the sketches also answer non-HH
    queries.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="ext_heavy_hitters",
        title=f"Heavy-hitter sizes vs counter algorithms (phi={phi}, NY18)",
        xlabel="memory_bytes", ylabel="ARE",
    )
    factories = {
        "SALSA CMS": lambda mem, t: alg.salsa_cms(int(mem), seed=t),
        "Baseline CMS": lambda mem, t: alg.baseline_cms(int(mem), seed=t),
        "SpaceSaving": lambda mem, t: SpaceSaving(
            k=max(1, int(mem) // _SS_ENTRY)),
        "MisraGries": lambda mem, t: MisraGries(
            k=max(1, int(mem) // _SS_ENTRY)),
    }
    return sweep(
        result, config.MEMORY_SWEEP, factories,
        lambda sk, mem, t: _hh_are(
            sk, synthetic_caida(length, "ny18", seed=t), phi),
        trials,
    )


# ----------------------------------------------------------------------
# ext_distinct: Linear Counting (CMS / SALSA) vs HyperLogLog
# ----------------------------------------------------------------------
def _distinct_are(sketch, trace, kind: str) -> float:
    run_updates(sketch, trace)
    if kind == "hll":
        estimate = sketch.estimate()
    elif kind == "salsa":
        estimate = distinct_count_salsa(sketch)
    else:
        estimate = distinct_count_baseline(sketch)
    if estimate is None:
        return 1.0  # saturated Linear Counting
    return relative_error(estimate, trace.distinct_count())


def ext_distinct(length: int | None = None, trials: int | None = None
                 ) -> ExperimentResult:
    """Count-distinct ARE vs memory, HLL as the reference point.

    Expectation: HLL is insensitive to memory down to tiny sizes
    (no Linear Counting cliff); SALSA extends the usable range of
    CMS-based Linear Counting below the baseline's, as in Fig 14a-c.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="ext_distinct",
        title="Count distinct: Linear Counting vs HyperLogLog (NY18)",
        xlabel="memory_bytes", ylabel="ARE",
    )

    def hll_for(memory: int, seed: int) -> HyperLogLog:
        p = 4
        while (1 << (p + 1)) <= memory and p + 1 <= 18:
            p += 1
        return HyperLogLog(p=p, seed=seed)

    factories = {
        "Baseline CMS + LC": lambda mem, t: alg.baseline_cms(
            int(mem), seed=t),
        "SALSA CMS + LC": lambda mem, t: alg.salsa_cms(int(mem), seed=t),
        "HyperLogLog": lambda mem, t: hll_for(int(mem), t),
    }

    def measure(sketch, mem, t):
        trace = synthetic_caida(length, "ny18", seed=t)
        if isinstance(sketch, HyperLogLog):
            kind = "hll"
        elif isinstance(sketch, CountMinSketch):  # rows that never merge
            kind = "baseline"
        else:
            kind = "salsa"
        return _distinct_are(sketch, trace, kind)

    return sweep(result, config.MEMORY_SWEEP, factories, measure, trials)


# ----------------------------------------------------------------------
# ext_nitro: sampled updates vs SALSA (error and speed)
# ----------------------------------------------------------------------
def ext_nitro(length: int | None = None, trials: int | None = None,
              memory: int = 32 * 1024) -> list[ExperimentResult]:
    """NitroSketch sampling-rate sweep against CS and SALSA CS.

    Expectation: as p drops, NitroSketch gains update speed linearly
    and loses accuracy ~1/sqrt(p); SALSA CS sits at better accuracy
    than the exact baseline at equal memory, showing the two
    techniques optimize different axes (the paper's related-work
    framing).
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    error = ExperimentResult(
        figure="ext_nitro_error",
        title=f"NitroSketch sampling vs SALSA CS ({memory // 1024}KB, NY18)",
        xlabel="sampling_p", ylabel="NRMSE",
    )
    speed = ExperimentResult(
        figure="ext_nitro_speed",
        title="NitroSketch sampling: update throughput",
        xlabel="sampling_p", ylabel="Mops",
    )
    ps = (0.05, 0.25, 1.0)

    def nitro_for(p: float, seed: int) -> NitroSketch:
        w = 1
        while (w * 2) * 5 * 4 <= memory:
            w *= 2
        return NitroSketch(w=w, d=5, p=p, seed=seed)

    factories = {
        "NitroSketch": lambda p, t: nitro_for(p, t),
        "Baseline CS": lambda p, t: alg.baseline_cs(memory, seed=t),
        "SALSA CS": lambda p, t: alg.salsa_cs(memory, seed=t),
    }
    sweep(
        error, ps, factories,
        lambda sk, p, t: nrmse_of(sk, synthetic_caida(length, "ny18", seed=t)),
        trials,
    )
    sweep(
        speed, ps, factories,
        lambda sk, p, t: throughput_mops(
            sk, synthetic_caida(length, "ny18", seed=t)),
        trials,
        jobs=1,  # wall-clock cells must not share cores (--jobs)
    )
    return [error, speed]


# ----------------------------------------------------------------------
# ext_estimators: the probabilistic-counter family vs SALSA
# ----------------------------------------------------------------------
def ext_estimators(length: int | None = None, trials: int | None = None
                   ) -> ExperimentResult:
    """Morris-CMS and RCS vs AEE and SALSA, NRMSE vs memory.

    Expectation: Morris registers carry estimator noise everywhere and
    RCS carries debiasing noise on mice, so both lose to SALSA except
    at the tightest memory points where representable range dominates.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="ext_estimators",
        title="Probabilistic counters vs SALSA (NY18)",
        xlabel="memory_bytes", ylabel="NRMSE",
    )

    def morris_for(memory: int, seed: int) -> MorrisCountMin:
        w = 1
        while (w * 2) * 4 <= memory:  # 4 rows x 8-bit registers
            w *= 2
        return MorrisCountMin(w=w, d=4, bits=8, base=1.08, seed=seed)

    def rcs_for(memory: int, seed: int) -> RandomizedCounterSharing:
        m = 2
        while (m * 2) * 4 <= memory:  # 32-bit pool counters
            m *= 2
        return RandomizedCounterSharing(m=m, l=8, seed=seed)

    factories = {
        "SALSA CMS": lambda mem, t: alg.salsa_cms(int(mem), seed=t),
        "AEE MaxAccuracy": lambda mem, t: alg.aee_max_accuracy(
            int(mem), seed=t),
        "Morris CMS": lambda mem, t: morris_for(int(mem), t),
        "RCS": lambda mem, t: rcs_for(int(mem), t),
    }
    return sweep(
        result, config.MEMORY_SWEEP[:3], factories,
        lambda sk, mem, t: nrmse_of(
            sk, synthetic_caida(length, "ny18", seed=t)),
        trials,
    )


# ----------------------------------------------------------------------
# ext_augmented: the hot-item filter stacked on baseline and SALSA
# ----------------------------------------------------------------------
def ext_augmented(length: int | None = None, trials: int | None = None
                  ) -> ExperimentResult:
    """Augmented Sketch filter over baseline vs over SALSA.

    Expectation: the filter helps both (exact heads), and composes
    with SALSA -- the filtered SALSA line should dominate everything,
    demonstrating that SALSA "can replace and enhance existing
    sketches in more complex algorithms" (the paper's conclusion).
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="ext_augmented",
        title="Augmented Sketch filter over baseline and SALSA (NY18)",
        xlabel="memory_bytes", ylabel="NRMSE",
    )
    filter_k = 16
    filter_bytes = filter_k * 16
    factories = {
        "Baseline CMS": lambda mem, t: alg.baseline_cms(int(mem), seed=t),
        "Augmented baseline": lambda mem, t: AugmentedSketch(
            alg.baseline_cms(int(mem) - filter_bytes, seed=t), k=filter_k),
        "SALSA CMS": lambda mem, t: alg.salsa_cms(int(mem), seed=t),
        "Augmented SALSA": lambda mem, t: AugmentedSketch(
            alg.salsa_cms(int(mem) - filter_bytes, seed=t), k=filter_k),
    }
    return sweep(
        result, config.MEMORY_SWEEP[:3], factories,
        lambda sk, mem, t: nrmse_of(
            sk, synthetic_caida(length, "ny18", seed=t)),
        trials,
    )


# ----------------------------------------------------------------------
# ext_cuckoo: exact tables vs sketches at equal memory
# ----------------------------------------------------------------------
def ext_cuckoo(length: int | None = None, trials: int | None = None
               ) -> ExperimentResult:
    """Cuckoo Counter vs SALSA CMS, NRMSE vs memory.

    Expectation: the exact table wins while flows fit; once the table
    saturates, evictions make its error explode while the sketch
    degrades gracefully -- the "simply use small counters?" argument
    of Fig 6 replayed against reference [47]'s design.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="ext_cuckoo",
        title="Exact cuckoo entries vs SALSA CMS (NY18)",
        xlabel="memory_bytes", ylabel="NRMSE",
    )

    def cuckoo_for(memory: int, seed: int) -> CuckooCounter:
        buckets = 2
        while True:
            candidate = CuckooCounter(buckets=buckets * 2, seed=seed)
            if candidate.memory_bytes > memory:
                break
            buckets *= 2
        return CuckooCounter(buckets=buckets, seed=seed)

    factories = {
        "SALSA CMS": lambda mem, t: alg.salsa_cms(int(mem), seed=t),
        "Cuckoo Counter": lambda mem, t: cuckoo_for(int(mem), t),
    }
    return sweep(
        result, config.MEMORY_SWEEP[:3], factories,
        lambda sk, mem, t: nrmse_of(
            sk, synthetic_caida(length, "ny18", seed=t)),
        trials,
    )


# ----------------------------------------------------------------------
# ext_partitioned: heavy/light and tree designs vs SALSA
# ----------------------------------------------------------------------
def ext_partitioned(length: int | None = None, trials: int | None = None
                    ) -> ExperimentResult:
    """Elastic Sketch and Counter Tree vs SALSA, NRMSE vs memory.

    Expectation: Elastic's exact heavy part wins once its buckets cover
    the elephants, but pays 17B/bucket; Counter Tree's shared parents
    add Pyramid-like noise.  SALSA should dominate the tight-memory
    end and stay competitive throughout.
    """
    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="ext_partitioned",
        title="Heavy/light and tree designs vs SALSA (NY18)",
        xlabel="memory_bytes", ylabel="NRMSE",
    )

    def elastic_for(memory: int, seed: int) -> ElasticSketch:
        # Elastic's paper splits memory ~ 25% heavy / 75% light.
        buckets = 2
        while (buckets * 2) * 17 <= memory // 4:
            buckets *= 2
        return ElasticSketch(heavy_buckets=buckets,
                             light_memory=memory - buckets * 17, seed=seed)

    def tree_for(memory: int, seed: int) -> CounterTree:
        w = 8
        while CounterTree(w=w * 2, s=4, degree=8, d=2).memory_bytes <= memory:
            w *= 2
        return CounterTree(w=w, s=4, degree=8, d=2, seed=seed)

    factories = {
        "SALSA CMS": lambda mem, t: alg.salsa_cms(int(mem), seed=t),
        "Elastic": lambda mem, t: elastic_for(int(mem), t),
        "Counter Tree": lambda mem, t: tree_for(int(mem), t),
    }
    return sweep(
        result, config.MEMORY_SWEEP[:3], factories,
        lambda sk, mem, t: nrmse_of(
            sk, synthetic_caida(length, "ny18", seed=t)),
        trials,
    )


# ----------------------------------------------------------------------
# ablation_hashing: does the hash function matter?
# ----------------------------------------------------------------------
def ablation_hashing(length: int | None = None, trials: int | None = None,
                     memory: int = 8 * 1024) -> ExperimentResult:
    """NitroSketch(p=1) error under splitmix64 vs tabulation hashing.

    A sanity ablation: sketch error should be hash-agnostic as long as
    the hash behaves uniformly.  A material gap would indict the mixer,
    not the sketch.  (NitroSketch at p=1 is an exact Count Sketch that
    hashes through the swappable family API.)
    """
    from repro.hashing import HashFamily, TabulationFamily

    length = length or config.stream_length()
    trials = trials or config.trials()
    result = ExperimentResult(
        figure="ablation_hashing",
        title=f"Hash family ablation (CS via NitroSketch p=1, "
              f"{memory // 1024}KB, NY18)",
        xlabel="zipf_skew", ylabel="NRMSE",
    )
    w = 1
    while (w * 2) * 5 * 4 <= memory:
        w *= 2

    factories = {
        "splitmix64": lambda skew, t: NitroSketch(
            w=w, d=5, p=1.0, hash_family=HashFamily(5, seed=t)),
        "tabulation": lambda skew, t: NitroSketch(
            w=w, d=5, p=1.0, hash_family=TabulationFamily(5, seed=t)),
    }
    return sweep(
        result, config.SKEWS, factories,
        lambda sk, skew, t: nrmse_of(
            sk, zipf_trace(length, skew, seed=t)),
        trials,
    )
