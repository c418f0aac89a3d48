"""Scenario workloads: parameterized stress streams with streaming truth.

The paper's evaluation runs on a handful of *static* traces -- random
order Zipf and the four dataset substitutes -- but SALSA's merges are
self-adjusting over *time*: a counter widened for yesterday's elephant
stays wide after the elephant leaves.  Whether that is a feature
(memory follows the workload) or a failure mode (stale wide counters
crowd out today's flows) depends on workload *dynamics*, which static
traces cannot express.  This module is the stress lab: each
:class:`Scenario` is a parameterized generator of non-stationary
streams -- drift, bursts, churn, periodic traffic, warped replays --
built for the batch pipeline end to end.

Two properties hold for every scenario, pinned by
``tests/test_scenarios.py``:

* **Determinism.**  A scenario generates internally in fixed-size
  blocks (:attr:`Scenario.block` arrivals each), consuming its RNG in
  block order, so the emitted stream is a pure function of
  ``(params, length, seed)`` -- and *identical for every requested
  chunk size*, because :meth:`Scenario.chunks` only re-slices blocks.
* **Streaming ground truth.**  :meth:`Scenario.stream` pairs each chunk
  with a :class:`StreamingTruth` whose exact counters are maintained
  incrementally (one ``np.unique`` over the chunk, O(chunk) work), so a
  million-update scenario never pays a full-stream recount per query
  point.  After the last chunk the truth is bit-identical to
  ``Trace.frequencies()`` of the whole stream.

Scenario id spaces are decoupled from generator ranks through the
Zipf generator's own :func:`~repro.streams.zipf.mix_ids` (one shared
implementation, so the documented stationary == ``zipf_trace``
distribution match cannot drift); special populations (burst flows,
churned heavy hitters) are tagged into a disjoint id space with bit
31 -- salts alone only decorrelate, they do not separate.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.streams.model import Trace
from repro.streams.zipf import mix_ids, zipf_cdf, zipf_ranks

__all__ = [
    "Scenario",
    "StreamingTruth",
    "SCENARIOS",
    "SCENARIO_NAMES",
    "make_scenario",
    "StationaryZipf",
    "DriftingZipf",
    "FlashCrowd",
    "HeavyHitterChurn",
    "PeriodicTraffic",
    "TraceReplay",
]

class StreamingTruth:
    """Exact frequency counters maintained incrementally per chunk.

    The ground-truth side of the scenario pipeline: ``absorb`` folds one
    chunk into the running counters with a single ``np.unique`` pass
    (O(chunk log chunk), no full-stream rescan), so error can be
    measured at any chunk boundary of an arbitrarily long stream.
    ``counts`` after the final chunk equals ``Trace.frequencies()`` of
    the concatenated stream, integer-for-integer.
    """

    __slots__ = ("counts", "n")

    def __init__(self):
        #: item -> exact count so far.
        self.counts: dict[int, int] = {}
        #: updates absorbed so far.
        self.n = 0

    def absorb(self, chunk: np.ndarray) -> None:
        """Fold one chunk of arrivals into the running counters."""
        values, counts = np.unique(np.asarray(chunk), return_counts=True)
        get = self.counts.get
        for x, c in zip(values.tolist(), counts.tolist()):
            self.counts[x] = get(x, 0) + c
        self.n += int(counts.sum())

    def query(self, item: int) -> int:
        """Exact count of ``item`` so far (0 if unseen)."""
        return self.counts.get(item, 0)

    @property
    def distinct(self) -> int:
        """Distinct items so far (exact F0)."""
        return len(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StreamingTruth(n={self.n}, distinct={self.distinct})"


class Scenario:
    """Base class: a deterministic generator of chunked workloads.

    Subclasses implement :meth:`_begin` (per-run state: RNG, CDF
    tables) and :meth:`_block_items` (one fixed-size block of
    arrivals).  Everything else -- re-chunking, whole-trace
    materialization, streaming truth -- is shared.

    The generation contract: blocks are produced in order with a fixed
    internal size (:attr:`block`), and all randomness is drawn from the
    state built in :meth:`_begin`.  Requested chunk sizes only re-slice
    the block sequence, so ``chunks(length, n, seed)`` concatenates to
    exactly ``trace(length, seed).items`` for *every* ``n``.
    """

    #: Registry key; subclasses override.
    name = "scenario"

    #: Internal generation granularity (arrivals per RNG block).  Fixed
    #: so RNG consumption -- hence the stream -- is chunk-size
    #: independent.
    block = 1 << 16

    def __init__(self, **params):
        self.params = dict(params)

    # -- subclass surface ------------------------------------------------
    def _begin(self, length: int, seed: int) -> dict:
        """Per-run generation state; subclasses extend.

        The RNG is salted with a stable per-scenario hash (crc32, never
        Python's randomized ``hash``) so distinct scenarios decorrelate
        while equal ``(scenario, seed)`` pairs reproduce across
        processes and sessions.
        """
        salt = zlib.crc32(self.name.encode())
        return {"rng": np.random.default_rng((seed ^ salt) & 0xFFFFFFFF),
                "length": length}

    def _block_items(self, state: dict, start: int, n: int) -> np.ndarray:
        """``n`` arrivals covering stream positions [start, start+n)."""
        raise NotImplementedError

    # -- shared pipeline -------------------------------------------------
    def _blocks(self, length: int, seed: int):
        state = self._begin(length, seed)
        for start in range(0, length, self.block):
            n = min(self.block, length - start)
            items = self._block_items(state, start, n)
            yield np.ascontiguousarray(items, dtype=np.int64)

    def chunks(self, length: int, chunk_size: int = 8192, seed: int = 0):
        """Yield the scenario as ``update_many``-ready int64 batches.

        Every chunk has exactly ``chunk_size`` arrivals except possibly
        the last; concatenating the chunks reproduces
        ``trace(length, seed)`` bit-for-bit regardless of
        ``chunk_size`` (chunking re-slices fixed internal blocks, it
        never changes RNG consumption).
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        pending: np.ndarray | None = None
        for block in self._blocks(length, seed):
            if pending is not None and len(pending):
                block = np.concatenate([pending, block])
            pos = 0
            while len(block) - pos >= chunk_size:
                yield block[pos:pos + chunk_size]
                pos += chunk_size
            pending = block[pos:]
        if pending is not None and len(pending):
            yield pending

    def stream(self, length: int, chunk_size: int = 8192, seed: int = 0):
        """Yield ``(chunk, truth)`` pairs with incremental exact truth.

        ``truth`` is one shared :class:`StreamingTruth`, already
        absorbed through the yielded chunk -- query it at any chunk
        boundary for exact counters over the stream so far.
        """
        truth = StreamingTruth()
        for chunk in self.chunks(length, chunk_size, seed):
            truth.absorb(chunk)
            yield chunk, truth

    def trace(self, length: int, seed: int = 0) -> Trace:
        """Materialize the whole scenario as a :class:`Trace`."""
        blocks = list(self._blocks(length, seed))
        items = (np.concatenate(blocks) if blocks
                 else np.empty(0, dtype=np.int64))
        return Trace(items, name=self.slug())

    # -- introspection ---------------------------------------------------
    def slug(self) -> str:
        """Short label: name plus non-default parameters."""
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v:g}" if isinstance(v, float) else
                         f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})"

    @classmethod
    def summary(cls) -> str:
        """First line of the scenario's docstring."""
        return (cls.__doc__ or "").strip().splitlines()[0]

    def describe(self) -> str:
        """Full scenario documentation plus the active parameters."""
        doc = (self.__doc__ or "").strip()
        lines = [doc, "", "parameters:"]
        for k, v in sorted(self.params.items()):
            lines.append(f"  {k} = {v}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.slug()}>"


class StationaryZipf(Scenario):
    """Stationary Zipf: the paper's random-order baseline workload.

    Items are sampled i.i.d. Zipf(``skew``) over a fixed universe for
    the whole stream -- the control scenario every dynamic scenario is
    measured against.  Matches the ``zipf_trace`` generator's
    distribution (same inverse-CDF sampler, same id mixing).
    """

    name = "stationary"

    def __init__(self, skew: float = 1.0, universe: int | None = None):
        super().__init__(skew=skew,
                         **({} if universe is None
                            else {"universe": universe}))
        self.skew = skew
        self.universe = universe

    def _begin(self, length: int, seed: int) -> dict:
        state = super()._begin(length, seed)
        universe = self.universe or length
        state["cdf"] = zipf_cdf(universe, self.skew)
        return state

    def _block_items(self, state: dict, start: int, n: int) -> np.ndarray:
        ranks = zipf_ranks(state["cdf"], state["rng"].random(n))
        return mix_ids(ranks, 12345)


class DriftingZipf(Scenario):
    """Drifting Zipf: the popularity head rotates through the universe.

    Every ``period`` arrivals the rank-to-item mapping shifts by
    ``rotate`` positions, so yesterday's elephants decay into mice and
    fresh flows take their place -- the workload that ages SALSA's
    merged counters fastest (wide counters pinned to items that no
    longer need them).  ``rotate=0`` degenerates to the stationary
    scenario.
    """

    name = "drift"

    def __init__(self, skew: float = 1.0, period: int = 16384,
                 rotate: int = 64, universe: int | None = None):
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        super().__init__(skew=skew, period=period, rotate=rotate,
                         **({} if universe is None
                            else {"universe": universe}))
        self.skew = skew
        self.period = period
        self.rotate = rotate
        self.universe = universe

    def _begin(self, length: int, seed: int) -> dict:
        state = super()._begin(length, seed)
        state["universe"] = self.universe or max(1024, length // 4)
        state["cdf"] = zipf_cdf(state["universe"], self.skew)
        return state

    def _block_items(self, state: dict, start: int, n: int) -> np.ndarray:
        ranks = zipf_ranks(state["cdf"], state["rng"].random(n))
        phase = (np.arange(start, start + n, dtype=np.int64)
                 // self.period) * self.rotate
        return mix_ids((ranks + phase) % state["universe"], 12345)


class FlashCrowd(Scenario):
    """Flash crowds: sudden bursts where one fresh flow floods the link.

    Baseline Zipf traffic, but every ``burst_every`` arrivals a burst
    window of ``burst_len`` arrivals opens in which each arrival is,
    with probability ``burst_share``, one *brand-new* burst flow (a
    fresh id per burst).  The sketch must absorb a counter going from 0
    to thousands in one window -- the overflow-cascade path -- then
    carry the dead elephant forever after.
    """

    name = "flash"

    def __init__(self, skew: float = 1.0, burst_every: int = 32768,
                 burst_len: int = 4096, burst_share: float = 0.5,
                 universe: int | None = None):
        if not 0.0 <= burst_share <= 1.0:
            raise ValueError(
                f"burst_share must be in [0, 1], got {burst_share}")
        if not 1 <= burst_len <= burst_every:
            raise ValueError(
                f"need 1 <= burst_len <= burst_every, got "
                f"{burst_len}/{burst_every}")
        super().__init__(skew=skew, burst_every=burst_every,
                         burst_len=burst_len, burst_share=burst_share,
                         **({} if universe is None
                            else {"universe": universe}))
        self.skew = skew
        self.burst_every = burst_every
        self.burst_len = burst_len
        self.burst_share = burst_share
        self.universe = universe

    def _begin(self, length: int, seed: int) -> dict:
        state = super()._begin(length, seed)
        state["cdf"] = zipf_cdf(self.universe or length, self.skew)
        return state

    def _block_items(self, state: dict, start: int, n: int) -> np.ndarray:
        rng = state["rng"]
        ranks = zipf_ranks(state["cdf"], rng.random(n))
        items = mix_ids(ranks, 12345)
        u = rng.random(n)
        pos = np.arange(start, start + n, dtype=np.int64)
        in_burst = (pos % self.burst_every) < self.burst_len
        fire = in_burst & (u < self.burst_share)
        if fire.any():
            # One fresh flow per burst, tagged into a disjoint id space.
            burst_ids = mix_ids(pos[fire] // self.burst_every,
                                 777) | (1 << 31)
            items[fire] = burst_ids
        return items


class HeavyHitterChurn(Scenario):
    """Adversarial churn: the entire heavy-hitter set is replaced.

    A fraction ``heavy_share`` of arrivals goes to a working set of
    ``heavy_k`` elephants; every ``period`` arrivals that set is
    discarded and ``heavy_k`` *fresh* ids take over, while the
    remaining arrivals sample a Zipf(``skew``) mouse tail.  Worst case
    for self-adjusting layouts: every generation of elephants forces
    new merges, and the memory spent on dead generations is
    unrecoverable within a sketch's lifetime (the windowed wrapper is
    the library's answer -- see ``repro.core.windowed``).
    """

    name = "churn"

    def __init__(self, heavy_k: int = 8, heavy_share: float = 0.5,
                 period: int = 16384, skew: float = 1.0,
                 universe: int | None = None):
        if heavy_k < 1:
            raise ValueError(f"heavy_k must be >= 1, got {heavy_k}")
        if not 0.0 <= heavy_share <= 1.0:
            raise ValueError(
                f"heavy_share must be in [0, 1], got {heavy_share}")
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        super().__init__(heavy_k=heavy_k, heavy_share=heavy_share,
                         period=period, skew=skew,
                         **({} if universe is None
                            else {"universe": universe}))
        self.heavy_k = heavy_k
        self.heavy_share = heavy_share
        self.period = period
        self.skew = skew
        self.universe = universe

    def _begin(self, length: int, seed: int) -> dict:
        state = super()._begin(length, seed)
        state["cdf"] = zipf_cdf(self.universe or length, self.skew)
        return state

    def _block_items(self, state: dict, start: int, n: int) -> np.ndarray:
        rng = state["rng"]
        tail = mix_ids(zipf_ranks(state["cdf"], rng.random(n)), 12345)
        u = rng.random(n)
        slots = rng.integers(0, self.heavy_k, size=n)
        pos = np.arange(start, start + n, dtype=np.int64)
        generation = pos // self.period
        heavy = u < self.heavy_share
        # Fresh elephant ids per generation, in a disjoint id space.
        ids = mix_ids(generation * self.heavy_k + slots, 999) | (1 << 31)
        return np.where(heavy, ids, tail)


class PeriodicTraffic(Scenario):
    """Periodic traffic: two flow populations alternate (day / night).

    The stream switches between two disjoint Zipf populations every
    half ``period`` -- the diurnal pattern sliding-window deployments
    exist for.  A plain sketch keeps paying for both populations; a
    :class:`~repro.core.windowed.WindowedSketch` whose epoch matches
    the half-period sheds the off-duty one at each rotation.
    """

    name = "periodic"

    def __init__(self, skew: float = 1.0, period: int = 32768,
                 universe: int | None = None):
        if period < 2:
            raise ValueError(f"period must be >= 2, got {period}")
        super().__init__(skew=skew, period=period,
                         **({} if universe is None
                            else {"universe": universe}))
        self.skew = skew
        self.period = period
        self.universe = universe

    def _begin(self, length: int, seed: int) -> dict:
        state = super()._begin(length, seed)
        universe = self.universe or max(1024, length // 4)
        state["universe"] = universe
        state["cdf"] = zipf_cdf(universe, self.skew)
        return state

    def _block_items(self, state: dict, start: int, n: int) -> np.ndarray:
        ranks = zipf_ranks(state["cdf"], state["rng"].random(n))
        pos = np.arange(start, start + n, dtype=np.int64)
        night = (pos % self.period) >= (self.period // 2)
        # Disjoint populations: night ranks live past the day universe.
        return mix_ids(ranks + night * state["universe"], 12345)


class TraceReplay(Scenario):
    """Trace replay with time-warp and windowed shuffle.

    Replays one of the library's workloads (a synthetic dataset
    substitute or a Zipf trace) at ``warp`` times real speed --
    ``warp > 1`` compresses the source (skipping arrivals), ``< 1``
    stretches it (repeating arrivals), and the replay wraps around when
    the warped clock passes the end, so a short source can drive an
    arbitrarily long run.  ``shuffle_window > 0`` additionally shuffles
    arrivals within fixed windows: local order is randomized, coarse
    arrival structure is preserved -- the knob between 'as recorded'
    and the paper's fully random order.  The defaults replay the ny18
    substitute at 1.5x with a 4K-window shuffle; ``warp=1.0,
    shuffle_window=0`` replays it as recorded.
    """

    name = "replay"

    def __init__(self, source: str = "ny18", source_length: int = 65536,
                 warp: float = 1.5, shuffle_window: int = 4096,
                 skew: float = 1.0):
        if warp <= 0:
            raise ValueError(f"warp must be > 0, got {warp}")
        if shuffle_window < 0:
            raise ValueError(
                f"shuffle_window must be >= 0, got {shuffle_window}")
        if source_length < 1:
            raise ValueError(
                f"source_length must be >= 1, got {source_length}")
        super().__init__(source=source, source_length=source_length,
                         warp=warp, shuffle_window=shuffle_window,
                         **({"skew": skew} if source == "zipf" else {}))
        self.source = source
        self.source_length = source_length
        self.warp = warp
        self.shuffle_window = shuffle_window
        self.skew = skew

    def _begin(self, length: int, seed: int) -> dict:
        from repro.streams.traces import DATASET_NAMES, dataset
        from repro.streams.zipf import zipf_trace

        state = super()._begin(length, seed)
        if self.source == "zipf":
            base = zipf_trace(self.source_length, self.skew, seed=seed)
        elif self.source in DATASET_NAMES:
            base = dataset(self.source, self.source_length, seed=seed)
        else:
            raise ValueError(
                f"unknown replay source {self.source!r}; expected "
                f"'zipf' or one of {DATASET_NAMES}")
        state["base"] = base.items
        return state

    def _block_items(self, state: dict, start: int, n: int) -> np.ndarray:
        base = state["base"]
        pos = np.arange(start, start + n, dtype=np.int64)
        idx = (pos * self.warp).astype(np.int64) % len(base)
        items = base[idx].copy()
        w = self.shuffle_window
        if w > 1:
            # Shuffle within windows aligned to *absolute* stream
            # positions via random sort keys, one draw per arrival --
            # deterministic for every chunking because generation
            # always proceeds in fixed-size blocks (windows straddling
            # a block boundary shuffle each side independently).
            keys = state["rng"].random(n)
            lo = 0
            while lo < n:
                hi = min(n, lo + w - (start + lo) % w)
                seg = slice(lo, hi)
                items[seg] = items[seg][np.argsort(keys[seg],
                                                   kind="stable")]
                lo = hi
        return items


#: Registry: scenario name -> class.  Each class's defaults are its
#: tuned operating point, with periods sized against the default
#: ``config.stream_length()`` (~1.3e5 updates) so every dynamic scenario
#: goes through several regime changes per run.  The experiments, the
#: CLI and the benchmarks all resolve through :func:`make_scenario`.
SCENARIOS: dict[str, type[Scenario]] = {
    cls.name: cls
    for cls in (StationaryZipf, DriftingZipf, FlashCrowd,
                HeavyHitterChurn, PeriodicTraffic, TraceReplay)
}

SCENARIO_NAMES = tuple(sorted(SCENARIOS))


def make_scenario(name: str, **params) -> Scenario:
    """Build a scenario by registry name with keyword parameters."""
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
    return SCENARIOS[name](**params)
