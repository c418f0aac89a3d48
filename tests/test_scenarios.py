"""The scenario workload subsystem: generators, truth, and wiring.

Pins the two scenario contracts -- determinism (same seed, same
stream, for *every* chunk size) and streaming-truth exactness
(incremental counters bit-identical to a whole-stream recount) -- and
spot-checks the scenario x engine x shard equivalence matrix: the
workload never changes what a sketch answers, only how fast it gets
there.
"""

import numpy as np
import pytest

from repro.core import (
    DistributedSketch,
    SalsaCountMin,
    WindowedSketch,
    shard,
)
from repro.streams import SCENARIO_NAMES, StreamingTruth, make_scenario
from repro.streams.scenarios import SCENARIOS

from answers import assert_answers

LENGTH = 20_000


def scenario_ids():
    return list(SCENARIO_NAMES)


@pytest.fixture(scope="module")
def traces():
    """One materialized stream per scenario (shared across tests)."""
    return {name: make_scenario(name).trace(LENGTH, seed=3)
            for name in SCENARIO_NAMES}


# ----------------------------------------------------------------------
# the generation contracts
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("name", scenario_ids())
    def test_same_seed_same_stream(self, name, traces):
        again = make_scenario(name).trace(LENGTH, seed=3)
        assert np.array_equal(traces[name].items, again.items)

    @pytest.mark.parametrize("name", scenario_ids())
    def test_different_seed_different_stream(self, name, traces):
        other = make_scenario(name).trace(LENGTH, seed=4)
        assert not np.array_equal(traces[name].items, other.items)

    @pytest.mark.parametrize("name", scenario_ids())
    @pytest.mark.parametrize("chunk", [1_000, 8_192, 65_536, 7_001])
    def test_chunk_size_invariance(self, name, chunk, traces):
        """Chunks re-slice fixed blocks: any chunking concatenates to
        the whole trace, bit for bit."""
        scenario = make_scenario(name)
        pieces = list(scenario.chunks(LENGTH, chunk, seed=3))
        assert all(len(p) == chunk for p in pieces[:-1])
        assert np.array_equal(np.concatenate(pieces), traces[name].items)

    def test_fresh_instance_is_stateless(self):
        """Generating twice from one instance changes nothing."""
        scenario = make_scenario("flash")
        a = scenario.trace(5_000, seed=1)
        b = scenario.trace(5_000, seed=1)
        assert np.array_equal(a.items, b.items)


class TestStreamingTruth:
    @pytest.mark.parametrize("name", scenario_ids())
    def test_truth_matches_whole_stream_recount(self, name, traces):
        """The acceptance bar: incremental exact counters, bit-identical
        to ``Trace.frequencies()`` of the full stream."""
        truth = None
        for chunk, truth in make_scenario(name).stream(LENGTH, 4_096,
                                                       seed=3):
            pass
        assert truth.counts == traces[name].frequencies()
        assert truth.n == LENGTH
        assert truth.distinct == traces[name].distinct_count()

    def test_truth_is_incremental_per_chunk(self):
        """At every chunk boundary the truth equals the prefix counts."""
        scenario = make_scenario("drift")
        seen = 0
        ref = {}
        for chunk, truth in scenario.stream(6_000, 1_024, seed=5):
            for x in chunk.tolist():
                ref[x] = ref.get(x, 0) + 1
            seen += len(chunk)
            assert truth.n == seen
            assert truth.counts == ref

    def test_unit_behaviour(self):
        truth = StreamingTruth()
        truth.absorb(np.array([7, 7, 9], dtype=np.int64))
        truth.absorb(np.array([9], dtype=np.int64))
        assert truth.query(7) == 2 and truth.query(9) == 2
        assert truth.query(8) == 0
        assert truth.n == 4 and truth.distinct == 2


class TestRegistryAndParams:
    def test_registry_is_complete(self):
        assert len(SCENARIO_NAMES) >= 6
        assert set(SCENARIOS) == set(SCENARIO_NAMES)

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("tsunami")

    @pytest.mark.parametrize("name,bad", [
        ("drift", {"period": 0}),
        ("flash", {"burst_share": 1.5}),
        ("flash", {"burst_len": 0}),
        ("churn", {"heavy_k": 0}),
        ("churn", {"heavy_share": -0.1}),
        ("periodic", {"period": 1}),
        ("replay", {"warp": 0.0}),
        ("replay", {"shuffle_window": -1}),
        ("replay", {"source_length": 0}),
    ])
    def test_parameter_validation(self, name, bad):
        with pytest.raises(ValueError):
            make_scenario(name, **bad)

    def test_replay_unknown_source(self):
        scenario = make_scenario("replay", source="nope")
        with pytest.raises(ValueError, match="unknown replay source"):
            scenario.trace(100, seed=0)

    def test_describe_and_slug(self):
        scenario = make_scenario("churn", heavy_k=4)
        text = scenario.describe()
        assert "heavy_k = 4" in text and "churn" in scenario.slug()
        assert SCENARIOS["churn"].summary()


class TestScenarioSemantics:
    def test_drift_rotates_the_head(self):
        """The heaviest flow of the first period is gone by the last."""
        scenario = make_scenario("drift", period=4_096, rotate=512,
                                 universe=4_096)
        trace = scenario.trace(32_768, seed=0)
        first = trace.head(4_096).frequencies()
        last_items = trace.items[-4_096:]
        last = dict(zip(*map(np.ndarray.tolist,
                             np.unique(last_items, return_counts=True))))
        top = max(first, key=first.get)
        assert last.get(top, 0) < first[top] / 4

    def test_flash_creates_fresh_elephants(self):
        scenario = make_scenario("flash", burst_every=8_192,
                                 burst_len=2_048, burst_share=0.6)
        trace = scenario.trace(32_768, seed=0)
        freq = trace.frequencies()
        burst_flows = [x for x in freq if x >> 31]
        assert len(burst_flows) == 4          # one per burst window
        assert all(freq[x] > 500 for x in burst_flows)

    def test_churn_replaces_the_heavy_set(self):
        scenario = make_scenario("churn", heavy_k=4, heavy_share=0.5,
                                 period=8_192)
        trace = scenario.trace(32_768, seed=0)
        freq = trace.frequencies()
        heavy = [x for x in freq if x >> 31]
        assert len(heavy) == 4 * 4            # 4 generations x heavy_k

    def test_periodic_populations_are_disjoint(self):
        scenario = make_scenario("periodic", period=8_192,
                                 universe=1_024)
        trace = scenario.trace(8_192, seed=0)
        day = set(trace.items[:4_096].tolist())
        night = set(trace.items[4_096:].tolist())
        assert not day & night

    def test_replay_warp_and_shuffle_preserve_multisets(self):
        base = dict(source="zipf", source_length=8_192, skew=1.0)
        warped = make_scenario("replay", warp=2.0, shuffle_window=0, **base)
        shuffled = make_scenario("replay", warp=2.0, shuffle_window=512,
                                 **base)
        a = warped.trace(16_384, seed=2)
        b = shuffled.trace(16_384, seed=2)
        assert a.frequencies() == b.frequencies()
        assert not np.array_equal(a.items, b.items)

    def test_replay_wraps_around(self):
        """A short source drives an arbitrarily long run."""
        scenario = make_scenario("replay", source="zipf",
                                 source_length=1_000, warp=1.0,
                                 shuffle_window=0)
        trace = scenario.trace(3_000, seed=1)
        third = trace.items[:1_000]
        assert np.array_equal(third, trace.items[1_000:2_000])
        assert np.array_equal(third, trace.items[2_000:])


# ----------------------------------------------------------------------
# scenario x engine x shard equivalence
# ----------------------------------------------------------------------
class TestEngineEquivalence:
    @pytest.mark.parametrize("name", scenario_ids())
    def test_engines_agree_on_every_scenario(self, name, traces):
        """An engine changes speed, never the sketch -- under workload
        dynamics too."""
        trace = traces[name]
        sketches = {}
        for engine in ("bitpacked", "vector"):
            sketch = SalsaCountMin(w=1_024, d=4, s=8, seed=1,
                                   engine=engine)
            for chunk in trace.chunks(4_096):
                sketch.update_many(chunk)
            sketches[engine] = sketch
        flows = sorted(trace.frequencies())
        assert_answers(sketches["bitpacked"], flows,
                       sketches["vector"].query_many(flows))


class TestShardEquivalence:
    @pytest.mark.parametrize("name", scenario_ids())
    def test_feed_stream_equals_whole_stream(self, name, traces):
        """Chunk-routed sharded ingest + merge == one sketch fed the
        whole scenario (sum merge is exactly mergeable)."""
        trace = traces[name]
        dist = DistributedSketch(
            lambda fam: SalsaCountMin(w=512, d=4, merge="sum",
                                      hash_family=fam),
            workers=3, d=4, seed=1)
        dist.feed_stream(trace.chunks(4_096), seed=1)
        combined = dist.combined()
        single = SalsaCountMin(w=512, d=4, merge="sum",
                               hash_family=dist.family)
        single.update_many(trace)
        flows = sorted(trace.frequencies())
        assert_answers(combined, flows, single.query_many(flows))

    @pytest.mark.parametrize("policy", ["hash", "round_robin"])
    def test_feed_stream_matches_shard_plus_feed(self, policy, traces):
        """Chunk-by-chunk routing delivers each worker exactly the
        subsequence whole-trace ``shard`` gives it (the round-robin
        arrival counter continues across chunks)."""
        trace = traces["churn"]
        streamed = DistributedSketch(
            lambda fam: SalsaCountMin(w=512, d=4, merge="sum",
                                      hash_family=fam),
            workers=3, d=4, seed=2)
        streamed.feed_stream(trace.chunks(1_777), policy=policy, seed=2)
        flows = sorted(trace.frequencies())
        for local, piece in zip(streamed.locals,
                                shard(trace, 3, policy=policy, seed=2)):
            ref = SalsaCountMin(w=512, d=4, merge="sum",
                                hash_family=streamed.family)
            ref.update_many(piece)
            assert_answers(local, flows, ref.query_many(flows))

    def test_feed_stream_unknown_policy(self):
        dist = DistributedSketch(
            lambda fam: SalsaCountMin(w=256, d=4, hash_family=fam),
            workers=2, d=4, seed=0)
        with pytest.raises(ValueError, match="unknown policy"):
            dist.feed_stream([np.arange(4)], policy="zigzag")


class TestWindowedUnderScenarios:
    @pytest.mark.parametrize("name", ["periodic", "churn"])
    def test_chunked_feed_matches_per_item(self, name, traces):
        """Scenario chunks through the windowed batch door land the
        rotating pair in exactly the per-item state."""
        trace = traces[name]

        def factory():
            return SalsaCountMin(w=512, d=4, s=8, seed=1)

        win = WindowedSketch(factory, epoch=3_000)
        for chunk in trace.chunks(1_024):
            win.update_many(chunk)
        ref = WindowedSketch(factory, epoch=3_000)
        for x in trace:
            ref.update(x)
        assert win.rotations == ref.rotations
        assert win.window_span == ref.window_span
        flows = sorted(set(trace.items[-6_000:].tolist()))
        assert_answers(win, flows, [ref.query(x) for x in flows])


def test_cross_process_determinism():
    """No generator may seed from Python's randomized ``hash`` --
    identical streams must reproduce under any PYTHONHASHSEED (this
    pins the crc32 seeding in scenarios.py and traces.py)."""
    import os
    import subprocess
    import sys

    code = ("from repro.streams import make_scenario;"
            "print([int(make_scenario(n).trace(4096, seed=3).items.sum())"
            " for n in ('replay', 'churn', 'stationary')])")
    outs = set()
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True,
            text=True, timeout=120, env=env,
            cwd=os.path.dirname(os.path.dirname(__file__)))
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout.strip())
    assert len(outs) == 1
