"""SALSA Conservative Update Sketch (section V, Theorem V.3).

Same conservative rule as CUS -- on ``<x, v>`` each counter rises to
``max(counter, v + f̂_x)`` -- over max-merge SALSA rows.  Theorem V.3
shows by induction that every SALSA counter stays bounded by the
corresponding counter of the underlying coarse CUS, so

    f_x <= f̂_SALSA-CUS(x) <= f̂_CUS(x).
"""

from __future__ import annotations

import numpy as np

from repro.hashing import HashFamily, mix64
from repro.core.engines import VectorRowEngine
from repro.core.row import MAX, SIMPLE, SalsaRow
from repro.sketches.base import (
    BatchOpsMixin,
    StreamModel,
    as_batch,
    batch_sum_fits,
    collapse_runs,
    batched_min_query,
    width_for_memory,
)


class SalsaConservativeUpdate(BatchOpsMixin):
    """SALSA CUS (Cash Register, max-merge by necessity).

    Examples
    --------
    >>> sk = SalsaConservativeUpdate(w=1024, d=4, seed=1)
    >>> for _ in range(300):
    ...     sk.update(42)
    >>> sk.query(42) >= 300
    True
    """

    model = StreamModel.CASH_REGISTER

    def __init__(self, w: int, d: int = 4, s: int = 8,
                 encoding: str = SIMPLE, max_bits: int = 64, seed: int = 0,
                 hash_family: HashFamily | None = None,
                 engine: str = "vector"):
        self.w = w
        self.d = d
        self.s = s
        self.hashes = hash_family if hash_family is not None else HashFamily(d, seed)
        self.rows = [
            SalsaRow(w=w, s=s, max_bits=max_bits, merge=MAX,
                     encoding=encoding, engine=engine)
            for _ in range(d)
        ]
        self.engine_name = self.rows[0].engine_name

    @classmethod
    def for_memory(cls, memory_bytes: int, d: int = 4, s: int = 8,
                   encoding: str = SIMPLE, seed: int = 0,
                   engine: str = "vector") -> "SalsaConservativeUpdate":
        """Largest SALSA CUS fitting in ``memory_bytes``."""
        overhead = 1.0 if encoding == SIMPLE else 0.594
        w = width_for_memory(memory_bytes, d, s, overhead_bits=overhead)
        return cls(w=w, d=d, s=s, encoding=encoding, seed=seed,
                   engine=engine)

    # ------------------------------------------------------------------
    def update(self, item: int, value: int = 1) -> None:
        """Conservative update over self-adjusting counters."""
        if value <= 0:
            raise ValueError(
                f"SALSA CUS is a Cash Register sketch; got value {value}"
            )
        mask = self.w - 1
        idxs = [mix64(item ^ seed) & mask for seed in self.hashes.seeds]
        est = min(row.read(idx) for row, idx in zip(self.rows, idxs))
        target = est + value
        for row, idx in zip(self.rows, idxs):
            row.set_at_least(idx, target)

    def query(self, item: int) -> int:
        """Minimum over rows."""
        mask = self.w - 1
        est = None
        for row, seed in zip(self.rows, self.hashes.seeds):
            v = row.read(mix64(item ^ seed) & mask)
            if est is None or v < est:
                est = v
        return est

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    def update_many(self, items, values=None) -> None:
        """Batched conservative update.

        The conservative rule couples rows through the pre-update
        minimum, so updates cannot be reordered -- but back-to-back
        updates of one key fuse exactly (``update(x, a); update(x, b)
        == update(x, a + b)``), and hashing vectorizes.  We collapse
        consecutive duplicate runs, hash each row once for the whole
        batch, and walk the collapsed stream in order.

        The walk drops onto plain Python lists of the vector engine's
        decoded counters wherever it provably can: each conservative
        update raises a counter by at most its own value, so a counter
        whose current value plus its total batch inflow fits its width
        cannot merge during the batch.
        Superblocks passing that check are served from lists (no
        per-step engine calls); slots in the rare *dirty* superblocks
        keep using the real engine ops, which perform any merges.  The
        walk stays in stream order throughout, so it is bit-identical
        to the per-item path.  Rows on the bit-packed reference engine
        take the per-item loop.
        """
        items, values = as_batch(items, values)
        if len(items) == 0:
            return
        if int(values.min()) <= 0:
            raise ValueError(
                "SALSA CUS is a Cash Register sketch; batch contains a "
                "non-positive value"
            )
        rows = self.rows
        if (not batch_sum_fits(values)
                or not all(isinstance(row.engine, VectorRowEngine)
                           for row in rows)):
            BatchOpsMixin.update_many(self, items, values)
            return
        items, values = collapse_runs(items, values)
        idx_arrays = [self.hashes.index_many(items, row_id, self.w)
                      for row_id in range(self.d)]
        masks = [row.add_batch_partial(idxs, values, apply=False)
                 for row, idxs in zip(rows, idx_arrays)]
        self._hybrid_walk(idx_arrays, values, masks)

    def _hybrid_walk(self, idx_arrays, values, masks) -> None:
        """Stream-order conservative walk, lists where merge-free.

        ``masks[r]`` flags row ``r``'s dirty superblocks (None = all
        clean).  Clean slots read/write Python lists of the decoded
        counters -- valid because no merge can occur there, and the
        vector engine duplicates a merged counter's value across its
        block, so reading slot ``j`` is just ``vals[j]``.  Dirty slots
        go through the engine, merging as the per-item path would;
        merges stay inside dirty superblocks, so the lists never go
        stale.  Clean slots are written back in one vectorized store.
        """
        rows = self.rows
        sb_slots = 1 << rows[0].max_level
        vals = [row.engine.values.tolist() for row in rows]
        levs = [row.engine.levels.tolist() for row in rows]
        idx_lists = [idxs.tolist() for idxs in idx_arrays]
        if all(mask is None for mask in masks):
            # Wholly merge-free: the tightest loop, no dirty checks.
            head, *rest = all_rows = list(zip(idx_lists, vals, levs))
            ir0, vr0, _ = head
            for t, v in enumerate(values.tolist()):
                est = vr0[ir0[t]]
                for ir, vr, _lr in rest:
                    c = vr[ir[t]]
                    if c < est:
                        est = c
                target = est + v
                for ir, vr, lr in all_rows:
                    i = ir[t]
                    if vr[i] < target:
                        level = lr[i]
                        if level:
                            start = (i >> level) << level
                            for k in range(start, start + (1 << level)):
                                vr[k] = target
                        else:
                            vr[i] = target
        else:
            # Dirty slots are marked with a None sentinel in the value
            # lists, so the hot loop pays no mask lookups; None routes
            # the slot through the real engine ops (which may merge).
            walk = []
            for row, idx_list, vr, lr, mask in zip(rows, idx_lists, vals,
                                                   levs, masks):
                if mask is not None:
                    for i in np.flatnonzero(np.repeat(mask,
                                                      sb_slots)).tolist():
                        vr[i] = None
                walk.append((idx_list, vr, lr, row.engine.read,
                             row.set_at_least))
            (ir0, vr0, _l0, read0, _s0), *tail = walk
            for t, v in enumerate(values.tolist()):
                i = ir0[t]
                est = vr0[i]
                if est is None:
                    est = read0(i)
                for ir, vr, _lr, read, _sal in tail:
                    i = ir[t]
                    c = vr[i]
                    if c is None:
                        c = read(i)
                    if c < est:
                        est = c
                target = est + v
                for ir, vr, lr, _read, set_at_least in walk:
                    i = ir[t]
                    c = vr[i]
                    if c is None:
                        set_at_least(i, target)
                    elif c < target:
                        level = lr[i]
                        if level:
                            start = (i >> level) << level
                            for k in range(start, start + (1 << level)):
                                vr[k] = target
                        else:
                            vr[i] = target
        for row, vr, mask in zip(rows, vals, masks):
            engine = row.engine
            if mask is None:
                engine.values[:] = vr
            else:
                clean = ~np.repeat(mask, sb_slots)
                for i in np.flatnonzero(~clean).tolist():
                    vr[i] = 0  # drop sentinels before the array store
                engine.values[clean] = np.asarray(
                    vr, dtype=engine.values.dtype)[clean]

    def query_many(self, items) -> list:
        """Batched query: one hash call per row, duplicate keys deduped."""
        def row_values(row_id, uniq):
            idxs = self.hashes.index_many(uniq, row_id, self.w)
            return self.rows[row_id].read_many(idxs)

        return batched_min_query(items, self.d, row_values)

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Payload plus merge-encoding overhead."""
        return sum((row.memory_bits + 7) // 8 for row in self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SalsaConservativeUpdate(w={self.w}, d={self.d}, s={self.s})"
