"""Pyramid Sketch (Yang et al., VLDB 2017) -- reimplemented from scratch.

Pyramid extends overflowing counters through a hierarchy of
*pre-allocated* layers: layer 1 holds ``w1`` pure delta-bit counters;
every layer above has half as many counters, each carrying 2 child
overflow flags plus ``delta - 2`` carry bits shared by its two
children.  An overflowing counter wraps and carries one unit into its
parent, setting its child flag; reading walks the carry chain upward
while flags are set.

The two structural properties the SALSA paper criticizes are faithfully
present here:

* upper-layer counters are allocated whether or not they are ever used
  ("inferior memory utilization"), and
* siblings that both overflow *share* their most significant bits in
  the common parent, which inflates error variance for exactly the
  elements that overflow (Fig 9, region A).
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.hashing import HashFamily, mix64
from repro.sketches import _kernels
from repro.sketches.base import (
    BatchOpsMixin,
    StreamModel,
    aggregate_batch,
    as_batch,
    as_item,
    as_keys,
    batch_sum_fits,
)


class PyramidSketch(BatchOpsMixin):
    """Pyramid Sketch, Count-Min variant (PCM).

    Parameters
    ----------
    w1:
        Width of the first (counting) layer; a power of two.
    d:
        Number of hash functions into layer 1 (the layers above are
        shared, per the original design).
    delta:
        Bits per counter in every layer (authors' default 8): pure
        count at layer 1, 2 flags + ``delta - 2`` carry bits above.
    layers:
        Number of layers; defaults to enough that the top layer has at
        least 4 counters.
    """

    model = StreamModel.CASH_REGISTER

    def __init__(self, w1: int, d: int = 4, delta: int = 8,
                 layers: int | None = None, seed: int = 0):
        if w1 < 4 or w1 & (w1 - 1):
            raise ValueError(f"w1 must be a power of two >= 4, got {w1}")
        if delta < 4:
            raise ValueError(f"delta must be >= 4, got {delta}")
        if layers is None:
            layers = 1
            width = w1
            while width > 4:
                width //= 2
                layers += 1
        self.w1 = w1
        self.d = d
        self.delta = delta
        self.n_layers = layers
        self.hashes = HashFamily(d, seed)
        self._layer1_cap = (1 << delta) - 1
        self._upper_cap = (1 << (delta - 2)) - 1
        # values[i]: counter (carry) values at layer i+1.
        self.values = [array("q", [0]) * max(2, w1 >> i) for i in range(layers)]
        # flags[i][j] bits: 1 = left child overflowed, 2 = right child.
        self.flags = [bytearray(max(2, w1 >> i)) for i in range(layers)]

    @classmethod
    def for_memory(cls, memory_bytes: int, d: int = 4, delta: int = 8,
                   seed: int = 0) -> "PyramidSketch":
        """Largest Pyramid fitting in ``memory_bytes``: its layers hold
        ``w1 + w1/2 + ... + 4 = 2 * w1 - 4`` counters of ``delta`` bits."""
        total_bits = memory_bytes * 8
        if 4 * delta > total_bits:
            raise ValueError(f"{memory_bytes}B cannot hold a Pyramid sketch")
        w1 = 4
        while (4 * w1 - 4) * delta <= total_bits:  # 2 * w1 fits too
            w1 *= 2
        return cls(w1=w1, d=d, delta=delta, seed=seed)

    # ------------------------------------------------------------------
    def _carry(self, layer: int, idx: int) -> None:
        """Propagate an overflow from (layer, idx) into its parent."""
        if layer + 1 >= self.n_layers:
            # Top layer saturates; nothing above to carry into.
            self.values[layer][idx] = (
                self._layer1_cap if layer == 0 else self._upper_cap
            )
            return
        parent = idx >> 1
        self.flags[layer + 1][parent] |= 1 << (idx & 1)
        new = self.values[layer + 1][parent] + 1
        if new > self._upper_cap:
            self.values[layer + 1][parent] = 0
            self._carry(layer + 1, parent)
        else:
            self.values[layer + 1][parent] = new

    def _increment(self, idx: int) -> None:
        """One unit into layer-1 counter ``idx``: the reference that
        :meth:`_add` computes in closed form."""
        vals = self.values[0]
        new = vals[idx] + 1
        if new > self._layer1_cap:
            vals[idx] = 0
            self._carry(0, idx)
        else:
            vals[idx] = new

    def _add(self, idx: int, k: int) -> None:
        """``k`` unit increments into layer-1 counter ``idx`` at once.

        The carry arithmetic of :meth:`update_many` for one counter, in
        Python ints: each layer keeps ``(old + k) mod (cap + 1)`` and
        passes ``(old + k) // (cap + 1)`` carries up, flagging the
        child in its parent; the top layer saturates at its cap.
        """
        for layer in range(self.n_layers):
            vals = self.values[layer]
            cap = self._layer1_cap if layer == 0 else self._upper_cap
            total = vals[idx] + k
            if layer == self.n_layers - 1:
                vals[idx] = min(total, cap)
                return
            vals[idx] = total & cap               # total mod (cap + 1)
            k = total >> cap.bit_length()         # total // (cap + 1)
            if not k:
                return
            self.flags[layer + 1][idx >> 1] |= 1 << (idx & 1)
            idx >>= 1

    def update(self, item: int, value: int = 1) -> None:
        """Add ``value`` units to each of the item's layer-1 counters,
        in O(layers) per row."""
        item, value = as_item(item, value)
        if value < 1:
            raise ValueError("Pyramid is a Cash Register sketch")
        mask = self.w1 - 1
        for seed in self.hashes.seeds:
            self._add(mix64(item ^ seed) & mask, value)

    def _reconstruct(self, idx: int) -> int:
        """Read the full value rooted at layer-1 counter ``idx``."""
        total = self.values[0][idx]
        shift = self.delta
        child = idx
        for layer in range(1, self.n_layers):
            parent = child >> 1
            if not self.flags[layer][parent] & (1 << (child & 1)):
                break
            total += self.values[layer][parent] << shift
            shift += self.delta - 2
            child = parent
        return total

    def query(self, item: int) -> int:
        """Minimum of the d reconstructed counter values."""
        item, _ = as_item(item)
        mask = self.w1 - 1
        est = None
        for seed in self.hashes.seeds:
            v = self._reconstruct(mix64(item ^ seed) & mask)
            if est is None or v < est:
                est = v
        return est

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    def update_many(self, items, values=None) -> None:
        """Fully vectorized batch update via carry arithmetic.

        A layer counter receiving ``k`` unit increments counts in base
        ``cap + 1``: its final value is ``(old + k) mod (cap + 1)`` and
        it emits ``(old + k) // (cap + 1)`` carries (the top layer
        saturates instead: ``min(old + k, cap)``).  The whole structure
        is therefore a function of per-counter inflow *totals* --
        order-invariant -- so duplicates aggregate, all ``d`` row
        indices hash in one stacked pass, and carries propagate
        layer by layer with one modular step each.
        """
        items, values = as_batch(items, values)
        if len(items) == 0:
            return
        if int(values.min()) < 1:
            raise ValueError("Pyramid is a Cash Register sketch")
        if not batch_sum_fits(values):
            BatchOpsMixin.update_many(self, items, values)
            return
        uniq, sums = aggregate_batch(items, values)
        idx2d = self.hashes.index_matrix(uniq, self.w1, self.d)
        idxs, carries = _kernels._aggregate_flat(
            idx2d.ravel(), np.broadcast_to(sums, idx2d.shape).ravel())
        for layer in range(self.n_layers):
            vals = np.frombuffer(self.values[layer], dtype=np.int64)
            cap = self._layer1_cap if layer == 0 else self._upper_cap
            if layer == self.n_layers - 1:
                vals[idxs] = np.minimum(cap, vals[idxs] + carries)
                return
            total = vals[idxs] + carries
            vals[idxs] = total & cap          # total mod (cap + 1)
            emitted = total >> cap.bit_length()  # total // (cap + 1)
            fired = emitted > 0
            if not fired.any():
                return
            child = idxs[fired]
            parents = child >> 1
            flag_view = np.frombuffer(self.flags[layer + 1], dtype=np.uint8)
            np.bitwise_or.at(
                flag_view, parents,
                (np.uint8(1) << (child & 1).astype(np.uint8)))
            idxs, carries = _kernels._aggregate_flat(parents, emitted[fired])

    def query_many(self, items) -> np.ndarray:
        """Vectorized batch query over the raw batch: masked carry-chain
        walk + row min, answered as int64."""
        # The vectorized walk sums int64, and a layer whose carry bits
        # reach past bit 62 could make a reconstructed value wrap: when
        # such a layer holds a carry, the exact per-item walk (Python
        # ints) answers, and raises ValueError for a value past int64.
        top_bit = self.delta
        for layer in range(1, self.n_layers):
            top_bit += self.delta - 2
            if top_bit > 63 and any(self.flags[layer]):
                return BatchOpsMixin.query_many(self, items)
        items = as_keys(items)
        idx2d = self.hashes.index_matrix(items, self.w1, self.d)
        child = idx2d.ravel()
        totals = np.frombuffer(self.values[0], dtype=np.int64)[child]
        shift = self.delta
        active = np.ones(len(child), dtype=bool)
        for layer in range(1, self.n_layers):
            parents = child >> 1
            flag_view = np.frombuffer(self.flags[layer], dtype=np.uint8)
            bits = flag_view[parents] & (
                np.uint8(1) << (child & 1).astype(np.uint8))
            active &= bits != 0
            if not active.any():
                break
            vals = np.frombuffer(self.values[layer], dtype=np.int64)
            totals[active] += vals[parents[active]] << shift
            shift += self.delta - 2
            child = parents
        return totals.reshape(idx2d.shape).min(axis=0)

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """All layers, flags included (they live inside the counters)."""
        bits = sum(len(v) * self.delta for v in self.values)
        return (bits + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"PyramidSketch(w1={self.w1}, d={self.d}, "
                f"delta={self.delta}, layers={self.n_layers})")
