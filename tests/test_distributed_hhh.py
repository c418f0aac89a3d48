"""Tests for distributed sketching and hierarchical heavy hitters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.distributed as distributed
from repro.core import (
    DistributedSketch,
    SalsaCountMin,
    SalsaCountSketch,
    SalsaRow,
    shard,
)
from repro.core.distributed import _split, _worker_keys
from repro.core.serialize import dumps, loads
from repro.hashing import mix64
from repro.sketches import CountMinSketch
from repro.tasks import HierarchicalHeavyHitters, dotted
from repro.streams import Trace, WeightedTrace, zipf_trace

from answers import assert_answers
from reference_rows import bitpacked, blob, build, wire


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       workers=st.sampled_from([1, 2, 3, 4, 255, 256, 257, 70_000]))
def test_split_keeps_each_workers_arrival_order(data, workers):
    """One stable sort of the worker ids, cut at their counts, hands
    every worker exactly the positions one mask per worker picks, in
    arrival order, whatever the id width."""
    keys = np.array(data.draw(st.lists(st.integers(0, workers - 1),
                                       max_size=80)), dtype=np.int64)
    parts = _split(keys, workers)
    assert len(parts) == workers
    for worker, pos in enumerate(parts):
        assert np.array_equal(pos, np.flatnonzero(keys == worker))


class TestShard:
    def test_rejects_bad_workers(self):
        trace = zipf_trace(100, 1.0, universe=50, seed=1)
        with pytest.raises(ValueError):
            shard(trace, 0)

    def test_rejects_bad_policy(self):
        trace = zipf_trace(100, 1.0, universe=50, seed=1)
        with pytest.raises(ValueError):
            shard(trace, 2, policy="bogus")

    def test_shards_partition_the_stream(self):
        trace = zipf_trace(5_000, 1.0, universe=800, seed=2)
        for policy in ("hash", "round_robin"):
            shards = shard(trace, 4, policy=policy)
            assert sum(len(s) for s in shards) == len(trace)
            merged = {}
            for piece in shards:
                for item, f in piece.frequencies().items():
                    merged[item] = merged.get(item, 0) + f
            assert merged == trace.frequencies()

    def test_hash_sharding_keeps_flows_together(self):
        trace = zipf_trace(3_000, 1.0, universe=400, seed=3)
        shards = shard(trace, 4, policy="hash", seed=3)
        seen: dict[int, int] = {}
        for worker, piece in enumerate(shards):
            for item in piece.frequencies():
                assert seen.setdefault(item, worker) == worker

    def test_round_robin_balances(self):
        trace = zipf_trace(4_000, 1.0, universe=400, seed=4)
        shards = shard(trace, 4, policy="round_robin")
        assert all(len(s) == 1_000 for s in shards)

    @pytest.mark.parametrize("workers,seed", [(2, 0), (3, 7), (5, 123)])
    def test_hash_assignment_pins_scalar_walk(self, workers, seed):
        """The vectorized hash policy is bit-identical to the per-item
        ``mix64(int(x) ^ mix64(seed)) % workers`` loop it replaced."""
        trace = zipf_trace(4_000, 1.0, universe=50_000, seed=seed + 1)
        expected = np.array([mix64(int(x) ^ mix64(seed)) % workers
                             for x in trace.items.tolist()])
        shards = shard(trace, workers, policy="hash", seed=seed)
        for worker, piece in enumerate(shards):
            assert np.array_equal(piece.items,
                                  trace.items[expected == worker])

    def test_hash_assignment_covers_negative_items(self):
        """int64 items with the sign bit set hash like their uint64
        bit pattern, exactly as the masked Python mixer did."""
        from repro.streams import Trace

        items = np.array([-1, -2**63, -12345, 7], dtype=np.int64)
        trace = Trace(items)
        expected = [mix64(int(x) ^ mix64(9)) % 3 for x in items.tolist()]
        shards = shard(trace, 3, policy="hash", seed=9)
        for worker, piece in enumerate(shards):
            assert piece.items.tolist() == [
                x for x, k in zip(items.tolist(), expected) if k == worker]


class TestDistributedSketch:
    def _factory(self):
        return lambda fam: SalsaCountMin(w=512, d=4, s=8, merge="sum",
                                         hash_family=fam)

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            DistributedSketch(self._factory(), workers=0)

    def test_rejects_a_local_the_codec_cannot_ship(self):
        """Fixed-width CMS built, ingested and failed only in
        ``combined()`` (``TypeError: cannot serialize``); now the
        build fails.  One worker ships nothing, so it may hold any
        sketch."""
        factory = lambda fam: CountMinSketch(w=64, hash_family=fam)
        with pytest.raises(ValueError, match="CountMinSketch cannot be "
                                             "sharded"):
            DistributedSketch(factory, workers=2)
        single = DistributedSketch(factory, workers=1)
        single.feed_stream([np.arange(10)])
        assert single.combined().query(3) >= 1

    @staticmethod
    def _engine_factory(engine, monkeypatch):
        """Workers on production rows, or on bit-packed reference rows,
        whose bytes ``combined`` ships through :func:`wire`."""
        monkeypatch.setattr(distributed, "dumps", wire)
        return lambda fam: build(SalsaCountMin, engine, w=512, d=4, s=8,
                                 merge="sum", hash_family=fam)

    @staticmethod
    def _assert_counters_equal(a, b):
        for row_a, row_b in zip(a.rows, b.rows):
            for j in range(row_b.w):
                assert row_a.level_of(j) == row_b.level_of(j)
                assert row_a.read(j) == row_b.read(j)

    @pytest.mark.parametrize("policy", ["hash", "round_robin"])
    @pytest.mark.parametrize("engine", ["bitpacked", "vector"])
    def test_merge_equals_single_sketch(self, policy, engine, monkeypatch):
        """Counter-for-counter: distributed == centralized (sum-merge),
        whichever door (per-item ``update`` or ``feed_stream`` at any
        chunk size), shard policy, and row engine ran."""
        trace = zipf_trace(20_000, 1.1, universe=2_000, seed=6)
        single = None
        for chunk in (None, 512 * 4, len(trace)):
            dist = DistributedSketch(self._engine_factory(engine,
                                                          monkeypatch),
                                     workers=4, d=4, seed=6)
            if chunk is None:
                for worker, piece in enumerate(
                        shard(trace, 4, policy=policy, seed=6)):
                    for x in piece:
                        dist.update(worker, x)
            else:
                # A chunk below the trace length exercises chunk
                # boundaries inside each worker.
                dist.feed_stream(trace.chunks(chunk), policy=policy, seed=6)
            combined = dist.combined()
            if single is None:
                single = build(SalsaCountMin, engine, w=512, d=4, s=8,
                               merge="sum", hash_family=dist.family)
                single.update_many(trace)
            self._assert_counters_equal(combined, single)

    def test_single_worker_combined_skips_the_wire(self):
        """Regression: one worker is the coordinator -- ``combined``
        returns its sketch directly, no dumps/loads round-trip."""
        dist = DistributedSketch(self._factory(), workers=1, d=4, seed=13)
        trace = zipf_trace(2_000, 1.0, universe=300, seed=13)
        dist.feed_stream([trace.items])
        combined = dist.combined()
        assert combined is dist.locals[0]
        single = SalsaCountMin(w=512, d=4, s=8, merge="sum",
                               hash_family=dist.family)
        single.update_many(trace)
        self._assert_counters_equal(combined, single)

    @pytest.mark.parametrize("engine", ["bitpacked", "vector"])
    def test_combined_answers_on_vector_rows(self, engine, monkeypatch):
        """Regression: the wire round-trip inside ``combined`` once
        rebuilt bit-packed sketches, so every merge walked
        ``SalsaRow.add`` and the final query ran on the slow storage.
        Whatever rows the workers use, the merged sketch is on
        production rows and answers exactly like a whole-stream
        sum-merge sketch."""
        trace = zipf_trace(20_000, 1.1, universe=2_000, seed=14)
        dist = DistributedSketch(self._engine_factory(engine, monkeypatch),
                                 workers=4, d=4, seed=14)
        dist.feed_stream(trace.chunks(4096), seed=14)
        combined = dist.combined()
        assert all(type(row) is SalsaRow for row in combined.rows)
        single = SalsaCountMin(w=512, d=4, s=8, merge="sum",
                               hash_family=dist.family)
        single.update_many(trace)
        flows = sorted(set(trace.items.tolist()))
        assert_answers(combined, flows, single.query_many(flows))
        self._assert_counters_equal(combined, single)

    def test_loads_rebuilds_bitpacked_state_on_vector_rows(self):
        """A blob of a bit-packed sketch's buffers loads into production
        rows with identical counters, and its bytes equal the blob of
        the same sketch built on production rows."""
        trace = zipf_trace(20_000, 1.1, universe=2_000, seed=15)
        ref = bitpacked(SalsaCountMin(w=512, d=4, s=8, seed=15))
        fast = SalsaCountMin(w=512, d=4, s=8, seed=15)
        ref.update_many(trace)
        fast.update_many(trace)
        clone = loads(blob(ref))
        assert all(type(row) is SalsaRow for row in clone.rows)
        for row_c, row_r in zip(clone.rows, ref.rows):
            assert list(row_c.counters()) == list(row_r.counters())
        assert blob(ref) == dumps(fast) == dumps(clone)

    def test_count_sketch_workers(self):
        """CS merging (signed, Turnstile) distributes too."""
        trace = zipf_trace(5_000, 1.0, universe=500, seed=7)
        dist = DistributedSketch(
            lambda fam: SalsaCountSketch(w=512, d=5, hash_family=fam),
            workers=3, d=5, seed=7)
        dist.feed_stream(trace.chunks(1024), seed=7)
        combined = dist.combined()
        truth = trace.frequencies()
        heavy = max(truth, key=truth.get)
        assert combined.query(heavy) == pytest.approx(
            truth[heavy], rel=0.25)

    @pytest.mark.parametrize("chunk", [
        [1.9, 1.9],            # floats are not keys (not key 1 twice)
        [[1, 2], [3, 4]],      # 2-D is not flattened
        [True],                # bools are not key 1
        [2 ** 70],             # beyond int64: no OverflowError leak
    ], ids=["float", "2d", "bool", "huge"])
    def test_feed_stream_rejects_what_update_many_rejects(self, chunk):
        dist = DistributedSketch(self._factory(), workers=3, d=4, seed=16)
        with pytest.raises(ValueError):
            dist.feed_stream([chunk])
        assert all(dumps(local) == dumps(self._factory()(dist.family))
                   for local in dist.locals)

    @pytest.mark.parametrize("worker", [-1, 3, 1.0, True])
    def test_update_rejects_a_worker_out_of_range(self, worker):
        dist = DistributedSketch(self._factory(), workers=3, d=4, seed=17)
        with pytest.raises(ValueError, match="worker"):
            dist.update(worker, 7)
        assert all(local.query(7) == 0 for local in dist.locals)


class TestHierarchicalHeavyHitters:
    def _hhh(self, w=2048):
        return HierarchicalHeavyHitters(
            lambda lvl: SalsaCountMin(w=w, d=4, s=8, seed=lvl))

    def test_rejects_bad_levels(self):
        factory = lambda lvl: SalsaCountMin(w=64, d=2, seed=lvl)
        with pytest.raises(ValueError):
            HierarchicalHeavyHitters(factory, levels=())
        with pytest.raises(ValueError):
            HierarchicalHeavyHitters(factory, levels=(16, 8))
        with pytest.raises(ValueError):
            HierarchicalHeavyHitters(factory, levels=(8, 128))

    def test_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            self._hhh(64).query(phi=0.0)

    def test_single_flow_full_chain(self):
        hhh = self._hhh()
        for _ in range(100):
            hhh.update(0x0A010203)
        chain = hhh.query(phi=0.9)
        assert [(p, b) for p, b, _ in chain] == [
            (0x0A000000, 8), (0x0A010000, 16),
            (0x0A010200, 24), (0x0A010203, 32)]

    def test_aggregated_prefix_without_heavy_leaf(self):
        """64 cold /32s under one /24 make the /24 heavy."""
        hhh = self._hhh()
        base = 0xC0A80100   # 192.168.1.0/24
        for host in range(64):
            for _ in range(4):
                hhh.update(base | host)
        for _ in range(256):
            hhh.update(0x08080808)   # competing traffic
        found = {(p, b) for p, b, _ in hhh.query(phi=0.3)}
        assert (base, 24) in found
        # No single host clears 30%.
        assert not any(b == 32 and p != 0x08080808 for p, b in found)

    def test_no_false_negatives(self):
        """Over-estimating sketches never prune a truly heavy prefix."""
        hhh = self._hhh(w=256)   # small sketches: lots of noise
        trace = zipf_trace(5_000, 1.2, universe=1_000, seed=8)
        truth_by_level: dict[int, dict[int, int]] = {
            bits: {} for bits in hhh.levels}
        for x in trace:
            key = int(x) & 0xFFFFFFFF
            hhh.update(key)
            for bits in hhh.levels:
                prefix = key >> (32 - bits) << (32 - bits)
                truth_by_level[bits][prefix] = \
                    truth_by_level[bits].get(prefix, 0) + 1
        phi = 0.05
        reported = {(p, b) for p, b, _ in hhh.query(phi)}
        for bits, counts in truth_by_level.items():
            for prefix, f in counts.items():
                if f >= phi * len(trace):
                    assert (prefix, bits) in reported

    def test_memory_sums_levels(self):
        hhh = self._hhh(w=256)
        assert hhh.memory_bytes == sum(
            s.memory_bytes for s in hhh.sketches)


class TestDotted:
    def test_formats_cidr(self):
        assert dotted(0x0A010200, 24) == "10.1.2.0/24"
        assert dotted(0xC0A80000, 16) == "192.168.0.0/16"


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                min_size=1, max_size=150),
       st.integers(min_value=1, max_value=6))
def test_shard_partition_property(items, workers):
    import numpy as np

    from repro.streams import Trace

    trace = Trace(np.array(items, dtype=np.int64))
    shards = shard(trace, workers, policy="hash", seed=1)
    assert sum(len(s) for s in shards) == len(items)


#: Small rows with 4-bit base counters, so weights force merges.
PROPERTY_SKETCHES = {
    "salsa-cms-sum": lambda fam: SalsaCountMin(w=32, d=2, s=4, merge="sum",
                                               hash_family=fam),
    "salsa-cs": lambda fam: SalsaCountSketch(w=32, d=2, s=4,
                                             hash_family=fam),
}


def _superblock_totals(sketch) -> list[dict[int, int]]:
    """Per row, the sum of live counter values in each superblock."""
    totals = []
    for row in sketch.rows:
        sums: dict[int, int] = {}
        for start, _, value in row.counters():
            key = start >> row.max_level
            sums[key] = sums.get(key, 0) + value
        totals.append(sums)
    return totals


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_feed_stream_equals_sharded_references(data):
    """``feed_stream`` under any chunk split lands each worker exactly
    where ``update_many`` over its ``shard`` lands it, and
    ``combined()`` equals the whole-stream sketch: counter for counter
    under sum-merge CMS.  A Count-Sketch counter's layout depends on
    the order of its signed deltas, so there the whole-stream check is
    the total of every superblock, which no layout changes."""
    kind = data.draw(st.sampled_from(sorted(PROPERTY_SKETCHES)), "kind")
    factory = PROPERTY_SKETCHES[kind]
    policy = data.draw(st.sampled_from(["hash", "round_robin"]), "policy")
    workers = data.draw(st.integers(1, 5), "workers")
    seed = data.draw(st.integers(0, 2 ** 16), "seed")
    items = np.array(data.draw(st.lists(
        st.one_of(st.integers(0, 7),
                  st.integers(-2 ** 63, 2 ** 63 - 1)),
        max_size=200), "items"), dtype=np.int64)
    values = None
    if data.draw(st.booleans(), "weighted"):
        low = -2 ** 20 if kind == "salsa-cs" else 1
        values = np.array(data.draw(st.lists(
            st.integers(low, 2 ** 20), min_size=len(items),
            max_size=len(items)), "values"), dtype=np.int64)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(items)),
                                     max_size=6), "cuts"))
    bounds = list(zip([0] + cuts, cuts + [len(items)]))
    if values is None:
        chunks = [items[lo:hi] for lo, hi in bounds]
    else:
        chunks = [WeightedTrace(items[lo:hi], values[lo:hi])
                  for lo, hi in bounds]

    dist = DistributedSketch(factory, workers, d=2, seed=seed)
    dist.feed_stream(chunks, policy=policy, seed=seed)

    keys = _worker_keys(items, workers, policy, seed)
    refs = []
    for worker, piece in enumerate(shard(Trace(items), workers, policy,
                                         seed)):
        mine = keys == worker
        assert np.array_equal(piece.items, items[mine])
        ref = factory(dist.family)
        ref.update_many(piece.items,
                        None if values is None else values[mine])
        assert dumps(dist.locals[worker]) == dumps(ref)
        refs.append(ref)

    combined = dist.combined()
    single = factory(dist.family)
    single.update_many(items, values)
    if kind == "salsa-cms-sum":
        assert dumps(combined) == dumps(single)
    else:
        assert _superblock_totals(combined) == _superblock_totals(single)
