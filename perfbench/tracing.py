"""Traced runs: timing wrappers around the program's public functions.

Wrappers are installed from the benchmark's own files, never inside the
program.  Each wrapped call records a span ``(name, start, end,
parent)`` in memory.  A counting tracer also counts at those boundaries
and counts ``SalsaRow.add`` calls against the innermost open span; that
work would land inside the spans, so a counting tracer's times are
never reported, and the timed passes run without it.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

import repro.core.distributed as distributed
import repro.core.ops as ops
import repro.core.salsa_cms as salsa_cms
from repro.core import DistributedSketch, SalsaConservativeUpdate, SalsaCountMin, SalsaRow
from repro.hashing import HashFamily

CMS_UPDATE = "core.salsa_cms.update_many"
CUS_UPDATE = "core.salsa_cus.update_many"
PLAN = "core.row.add_batch_partial"
MERGE = "core.ops.merge"

#: (span name, owner, attribute) of every timed function.
TIMED = (
    ("hashing.index_many", HashFamily, "index_many"),
    ("sketches.base.aggregate_batch", salsa_cms, "aggregate_batch"),
    (PLAN, SalsaRow, "add_batch_partial"),
    ("core.row.read_many", SalsaRow, "read_many"),
    (CMS_UPDATE, SalsaCountMin, "update_many"),
    (CUS_UPDATE, SalsaConservativeUpdate, "update_many"),
    ("query_many", SalsaCountMin, "query_many"),
    ("query_many", SalsaConservativeUpdate, "query_many"),
    ("core.distributed.feed_stream", DistributedSketch, "feed_stream"),
    ("core.distributed.combined", DistributedSketch, "combined"),
    ("core.serialize.dumps", distributed, "dumps"),
    ("core.serialize.loads", distributed, "loads"),
    (MERGE, ops, "merge"),
)

#: layers reported as their total span time; the two update_many spans
#: are reported as self time (replay and walk) instead
TOTALS = tuple(dict.fromkeys(
    name for name, _owner, _attr in TIMED
    if name not in (CMS_UPDATE, CUS_UPDATE)))


class Tracer:
    """Collects spans, and with ``counting`` also counts, while
    installed (a context manager)."""

    def __init__(self, counting: bool = False):
        self.counting = counting
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._open: list[tuple[int, str]] = []
        self._saved: list[tuple] = []
        self._after = ({PLAN: self._after_plan,
                        "core.serialize.dumps": self._after_dumps}
                       if counting else {})

    # -- wrappers -----------------------------------------------------
    def _timed(self, name: str, fn):
        spans, open_ = self.spans, self._open
        after = self._after.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = open_[-1][0] if open_ else -1
            idx = len(spans)
            spans.append(None)
            open_.append((idx, name))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                spans[idx] = (name, t0, t1, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted_add(self, fn):
        counts, open_ = self.counts, self._open

        def add(*args, **kwargs):
            counts["add:" + (open_[-1][1] if open_ else "")] += 1
            return fn(*args, **kwargs)

        return add

    def _after_plan(self, args, kwargs, dirty) -> None:
        row, idxs = args[0], args[1]
        apply = args[3] if len(args) > 3 else kwargs.get("apply", True)
        if dirty is not None:
            self.counts["dirty_superblocks"] += int(np.count_nonzero(dirty))
        if apply:
            # Both sides of bulk_share count row-keys, a batch's distinct
            # keys each hashed into this row, whatever the replay does.
            n_dirty = (0 if dirty is None else int(np.count_nonzero(
                dirty[np.asarray(idxs) >> row.max_level])))
            self.counts["bulk_row_keys"] += len(idxs) - n_dirty
            self.counts["replayed_row_keys"] += n_dirty

    def _after_dumps(self, args, kwargs, blob) -> None:
        self.counts["blob_bytes"] += len(blob)

    # -- install / remove --------------------------------------------
    def __enter__(self) -> "Tracer":
        for name, owner, attr in TIMED:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._timed(name, fn))
        if self.counting:
            add = SalsaRow.__dict__["add"]
            self._saved.append((SalsaRow, "add", add))
            SalsaRow.add = self._counted_add(add)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- reduction ----------------------------------------------------
    def time_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer total and self times, as ``name -> (seconds, "s")``."""
        total: Counter = Counter()
        child: Counter = Counter()
        for name, t0, t1, parent in self.spans:
            total[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_time: Counter = Counter()
        for idx, (name, t0, t1, _parent) in enumerate(self.spans):
            if name in (CMS_UPDATE, CUS_UPDATE):
                self_time[name] += (t1 - t0) - child[idx]
        out = {f"{name}_s": (total[name], "s") for name in TOTALS}
        out["core.row.replay_s"] = (self_time[CMS_UPDATE], "s")
        out["core.salsa_cus.walk_s"] = (self_time[CUS_UPDATE], "s")
        return out

    def count_metrics(self) -> dict[str, tuple[float, str]]:
        """What a counting tracer counted, as ``name -> (value, unit)``."""
        if not self.counting:
            raise ValueError("this tracer did not count")
        c = self.counts
        bulk, replayed = c["bulk_row_keys"], c["replayed_row_keys"]
        return {
            "core.row.replay_adds": (c["add:" + CMS_UPDATE], "count"),
            "core.row.dirty_superblocks": (c["dirty_superblocks"], "count"),
            "core.row.bulk_share": (
                bulk / (bulk + replayed) if bulk + replayed else 0.0,
                "rowkey/rowkey"),
            "core.serialize.blob_bytes": (c["blob_bytes"], "bytes"),
            "core.ops.walk_adds": (c["add:" + MERGE], "count"),
        }

    def dump(self) -> list[dict]:
        """The spans, in call order, as plain records."""
        return [{"name": n, "start": t0, "end": t1, "parent": p}
                for n, t0, t1, p in self.spans]
