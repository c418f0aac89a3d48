"""Shared sketch infrastructure: models, interfaces, memory sizing.

Every sketch in the library -- baselines, competitors, and the SALSA
variants in :mod:`repro.core` -- follows the same small interface:
``update(item, value)``, ``query(item)``, and a ``memory_bytes``
property that includes all encoding overheads, because the paper's
figures put *allocated memory including overheads* on the x-axis
("When we give figures where an x-axis is allocated memory, we include
the encoding overheads").
"""

from __future__ import annotations

import enum
import inspect
from typing import Protocol, runtime_checkable

import numpy as np

from repro.hashing import HashFamily
from repro.sketches import _kernels


class StreamModel(enum.Enum):
    """The three stream models of section III."""

    CASH_REGISTER = "cash_register"      # strictly positive updates
    STRICT_TURNSTILE = "strict_turnstile"  # frequencies never negative
    TURNSTILE = "turnstile"              # fully general


@runtime_checkable
class FrequencySketch(Protocol):
    """Anything that estimates per-item frequencies from a stream."""

    def update(self, item: int, value: int = 1) -> None:
        """Process the update ``<item, value>``."""
        ...

    def query(self, item: int) -> float:
        """Estimate the frequency of ``item``."""
        ...

    @property
    def memory_bytes(self) -> int:
        """Total memory footprint, including encoding overheads."""
        ...


@runtime_checkable
class BatchFrequencySketch(FrequencySketch, Protocol):
    """A frequency sketch with a bulk ingestion/query interface."""

    def update_many(self, items, values=None) -> None:
        """Process a batch of updates, equivalent to per-item ``update``."""
        ...

    def query_many(self, items) -> np.ndarray:
        """Estimates for a batch, equivalent to per-item ``query``: one
        array of the sketch's ``query_dtype``."""
        ...


_INT64 = np.dtype(np.int64)
_INT64_MAX = (1 << 63) - 1
_INT64_MIN = -_INT64_MAX - 1


def _not_int64(what: str, got: str) -> ValueError:
    return ValueError(f"{what} must be integers within int64, got {got}")


def _int64_column(x, what: str) -> np.ndarray:
    """``x`` as a C-contiguous 1-D int64 array, or ``ValueError``."""
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"batch {what} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    if arr.dtype.kind not in "iu" or (arr.dtype == np.uint64
                                      and int(arr.max()) > _INT64_MAX):
        raise _not_int64(f"batch {what}", f"dtype {arr.dtype}")
    if not isinstance(x, np.ndarray):
        # NumPy reads [5, True] and [5, np.array(True)] as int64 [5, 1];
        # as_item refuses a bool, so the batch door does too.
        kinds = set(map(type, x))  # one C-level pass over the list
        if bool in kinds or np.bool_ in kinds or (np.ndarray in kinds and any(
                getattr(v, "dtype", None) == bool for v in x)):
            raise _not_int64(f"batch {what}", "a bool")
    return np.ascontiguousarray(arr, dtype=np.int64)


def _int64_scalar(x, what: str) -> int:
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        x = int(x)
        if _INT64_MIN <= x <= _INT64_MAX:
            return x
    raise _not_int64(what, repr(x))


def as_item(item, value=1) -> tuple[int, int]:
    """The per-item twin of :func:`as_batch`: ``item`` and ``value`` as
    Python ints within int64, else the same ``ValueError``."""
    if (type(item) is int and type(value) is int
            and _INT64_MIN <= item <= _INT64_MAX
            and _INT64_MIN <= value <= _INT64_MAX):
        return item, value  # the per-item doors' usual call, at half the cost
    return _int64_scalar(item, "keys"), _int64_scalar(value, "values")


def as_batch(items, values=None) -> tuple[np.ndarray, np.ndarray]:
    """Normalize an update batch to int64 ``(items, values)`` arrays.

    ``values=None`` means unit weights (the paper's Cash Register
    streams).  Accepts lists, tuples, numpy arrays, Traces, and
    WeightedTraces (whose own values array is consumed).  Keys and
    values must be 1-D integer sequences within int64 (integer arrays
    of any width qualify); anything else raises ``ValueError``.
    """
    if (type(items) is np.ndarray and type(values) is np.ndarray
            and items.dtype == _INT64 and values.dtype == _INT64
            and items.ndim == 1 and items.shape == values.shape
            and items.flags.c_contiguous and values.flags.c_contiguous):
        return items, values  # every internal caller's shape, as is
    if hasattr(items, "items") and isinstance(getattr(items, "items"), np.ndarray):
        trace_values = getattr(items, "values", None)
        if isinstance(trace_values, np.ndarray):  # a WeightedTrace
            if values is not None:
                raise ValueError(
                    "explicit values conflict with the batch's own "
                    "values array"
                )
            values = trace_values
        items = items.items  # a Trace
    items = _int64_column(items, "keys")
    if values is None:
        values = np.ones(len(items), dtype=np.int64)
    else:
        values = _int64_column(values, "values")
        if len(values) != len(items):
            raise ValueError(
                f"batch length mismatch: {len(items)} items, "
                f"{len(values)} values"
            )
    return items, values


def aggregate_batch(items: np.ndarray,
                    values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate keys: ``(unique_items, summed_values)``.

    Exact only for sketches whose update is order-independent over the
    batch (plain additions); callers guard accordingly.
    """
    uniq, inverse = np.unique(items, return_inverse=True)
    if len(uniq) == len(items):
        return items, values
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inverse, values)
    return uniq, sums


def collapse_runs(items: np.ndarray,
                  values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse *consecutive* duplicate keys into one weighted update.

    Unlike :func:`aggregate_batch` this never reorders the stream, so
    it is exact for order-dependent sketches (conservative update,
    Space-Saving) where back-to-back updates of one key provably fuse:
    ``update(x, a); update(x, b) == update(x, a + b)``.
    """
    if len(items) == 0:
        return items, values
    starts = np.empty(len(items), dtype=bool)
    starts[0] = True
    np.not_equal(items[1:], items[:-1], out=starts[1:])
    if starts.all():
        return items, values
    run_starts = np.flatnonzero(starts)
    sums = np.add.reduceat(values, run_starts)
    return items[run_starts], sums


#: Total-batch inflow ceiling for vectorized paths.  Aggregated deltas
#: live in int64 scratch arrays; keeping the batch's total absolute
#: inflow at or below 2^61 leaves headroom so `counter + delta` cannot
#: wrap for any counter of <= 62 payload bits.  (Summed as float64: the
#: relative error is ~2^-52, vastly smaller than the slack.)
_BATCH_SUM_BOUND = float(1 << 61)


def batch_sum_fits(values: np.ndarray) -> bool:
    """True when a batch's total absolute inflow is safely below int64
    wraparound; vectorized update paths fall back otherwise."""
    return float(np.abs(values).sum(dtype=np.float64)) <= _BATCH_SUM_BOUND


def median_dtype(d: int) -> np.dtype:
    """Answer dtype of a median over ``d`` int64 rows: the middle row
    (int64) for odd ``d``, the mean of the two middle rows (float64)
    for even ``d`` -- as :func:`median` answers."""
    return np.dtype(np.int64 if d % 2 else np.float64)


def batched_min_query(items, d: int, row_values) -> np.ndarray:
    """Shared min-over-rows batch query.

    ``row_values(row_id, items)`` returns one row's counter values for
    the raw batch (duplicates included, in order); the answer is their
    minimum across rows, in the rows' dtype.  Bit-identical to per-item
    min queries because reads are pure.
    """
    items, _ = as_batch(items)
    est = row_values(0, items)
    for row_id in range(1, d):
        est = np.minimum(est, row_values(row_id, items))
    return est


def batched_median_query(items, d: int, row_votes) -> np.ndarray:
    """Shared median-over-rows batch query (Count Sketch aggregation).

    ``row_votes(row_id, items)`` returns one row's signed int64
    estimates for the raw batch.  Replicates :func:`median` exactly, in
    :func:`median_dtype` ``(d)``
    (:func:`~repro.sketches._kernels.median_over_rows`).
    """
    items, _ = as_batch(items)
    votes = np.empty((d, len(items)), dtype=np.int64)
    for row_id in range(d):
        votes[row_id] = row_votes(row_id, items)
    return _kernels.median_over_rows(votes)


def answer_dtype(sketch) -> np.dtype:
    """The dtype ``sketch`` answers batches in: its declared
    ``query_dtype``, else float64 (what :class:`FrequencySketch`'s
    ``query`` promises)."""
    return np.dtype(getattr(sketch, "query_dtype", np.float64))


def answer_array(answers, n: int, dtype) -> np.ndarray:
    """The ``n`` ints of ``answers`` as one ``dtype`` array;
    ``ValueError`` for an answer outside that dtype's range."""
    try:
        return np.fromiter(answers, dtype=dtype, count=n)
    except OverflowError:
        raise _out_of_range(dtype) from None


def query_loop(sketch, items: np.ndarray) -> np.ndarray:
    """Per-item ``sketch.query`` over int64 ``items``, as one
    :func:`answer_dtype` array (see :func:`answer_array`)."""
    return answer_array(map(sketch.query, items.tolist()), len(items),
                        answer_dtype(sketch))


def batch_answers(sketch, items: np.ndarray) -> np.ndarray:
    """``sketch.query_many(items)``, or :func:`query_loop` for a sketch
    without a batch door."""
    if hasattr(sketch, "query_many"):
        return sketch.query_many(items)
    return query_loop(sketch, items)


def _out_of_range(dtype) -> ValueError:
    return ValueError(f"an estimate exceeds the {dtype} answer range")


def add_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b`` for two answer arrays of one dtype; ``ValueError``
    where an integer sum would wrap (the per-item answer, a Python
    int, lies outside the dtype)."""
    total = a + b
    if a.dtype.kind == "u":
        wrapped = total < a
    elif a.dtype.kind == "i":
        wrapped = ((a ^ total) & (b ^ total)) < 0
    else:
        return total
    if wrapped.any():
        raise _out_of_range(a.dtype)
    return total


class BatchOpsMixin:
    """Default ``update_many``/``query_many``: the per-item loop.

    Every sketch inheriting this exposes the batch API; fast sketches
    override one or both methods with vectorized paths that are
    *bit-identical* to this fallback (enforced by
    ``tests/test_batch_api.py``).  Overrides that are only exact under
    preconditions (e.g. non-negative values) must delegate back to
    these defaults when the precondition fails.

    Sketches whose storage is a row engine (:mod:`repro.core.engines`)
    record it in :attr:`engine_name`: the SALSA family takes an
    ``engine=`` kwarg (plumbed through ``for_memory`` as well), and the
    fixed-width CMS, CUS and AEE, whose rows are SALSA rows that never
    merge, report ``"vector"`` without taking one.  The other sketches
    leave it ``None``.  The engine only changes which code path the
    batch door takes, never the answers.
    """

    #: Row-engine name for row-backed sketches, else None.
    engine_name: str | None = None

    #: dtype of every ``query_many`` answer, fixed by the sketch's
    #: configuration (never inferred from the values).
    query_dtype = np.dtype(np.int64)

    def update_many(self, items, values=None) -> None:
        """Process a batch of updates in order, one ``update`` each."""
        items, values = as_batch(items, values)
        update = self.update
        for x, v in zip(items.tolist(), values.tolist()):
            update(x, v)

    def query_many(self, items) -> np.ndarray:
        """Per-item ``query`` over a batch, preserving order, as one
        :attr:`query_dtype` array.

        Normalizes through :func:`as_batch` so lists, tuples, NumPy
        arrays, Traces, and WeightedTraces are all accepted uniformly
        (the same front door ``update_many`` uses).  An answer outside
        the dtype's range raises ``ValueError``.
        """
        return query_loop(self, as_batch(items)[0])


def row_hashes(d: int, seed: int = 0,
               hash_family: HashFamily | None = None) -> HashFamily:
    """The hash functions of a sketch's ``d`` rows: ``hash_family`` if
    given (sketches that merge must share one), else
    ``HashFamily(d, seed)``.

    Raises ``ValueError`` unless it is a :class:`HashFamily` of exactly
    ``d`` functions: the per-item doors read its ``seeds``, one per row.
    """
    hashes = hash_family if hash_family is not None else HashFamily(d, seed)
    if not isinstance(hashes, HashFamily) or hashes.d != d:
        raise ValueError(f"{d} rows need a HashFamily of d={d}, "
                         f"got {hashes!r}")
    return hashes


class FixedWidth:
    """Sizing shared by every fixed-width sketch: ``d`` rows of ``w``
    counters of ``counter_bits`` bits each, with no encoding overhead.

    Unsigned counters hold ``[0, 2^b - 1]``, ``b`` in ``[1, 63]`` (so
    every value fits an int64); signed (two's-complement) ones
    ``[-2^(b-1), 2^(b-1) - 1]``, ``b`` in ``[2, 64]``.
    """

    #: Two's-complement counters (Count Sketch) rather than unsigned.
    signed = False

    def _set_counter_bits(self, counter_bits: int) -> None:
        """Check ``counter_bits`` and set it with :attr:`cap`, the
        largest value a counter holds."""
        low, high = (2, 64) if self.signed else (1, 63)
        if not low <= counter_bits <= high:
            raise ValueError(f"counter_bits must be in [{low}, {high}], "
                             f"got {counter_bits}")
        self.counter_bits = counter_bits
        self.cap = (1 << (counter_bits - self.signed)) - 1

    @classmethod
    def for_memory(cls, memory_bytes: int, **kwargs):
        """The largest sketch fitting in ``memory_bytes``.  ``d`` and
        ``counter_bits`` (the constructor's defaults unless given) fix
        the cost of a row; keyword arguments go to the constructor."""
        params = inspect.signature(cls).parameters
        d = kwargs.get("d", params["d"].default)
        bits = kwargs.get("counter_bits", params["counter_bits"].default)
        return cls(w=width_for_memory(memory_bytes, d, bits), **kwargs)

    @property
    def memory_bytes(self) -> int:
        """Counter storage only: fixed-width sketches have no overhead."""
        return self.d * self.w * self.counter_bits // 8

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"{type(self).__name__}(w={self.w}, d={self.d}, "
                f"counter_bits={self.counter_bits})")


class FixedWidthRows(FixedWidth):
    """The fixed-width CMS, CUS and AEE over SALSA rows that never
    merge.

    A row with ``s = max_bits = counter_bits`` has ``max_level = 0``:
    an add clamps at zero and saturates at ``2^counter_bits - 1``,
    exactly the fixed-width rule.  Mixed in ahead of the row sketch
    it specializes, it keeps the baseline's sizing (no encoding bit)
    and its int64 answers: ``query_many`` views the rows' uint64
    minimum as int64, exact because counters stay below ``2^63``
    (AEE restates SALSA AEE's, which scales it to float64).
    """

    query_dtype = np.dtype(np.int64)

    def query_many(self, items) -> np.ndarray:
        """The rows' min-over-rows batch query, as int64."""
        return super().query_many(items).view(np.int64)

    def zero_counters(self, row: int = 0) -> int:
        """Number of zero-valued counters in ``row`` (Linear Counting)."""
        slots = np.arange(self.w, dtype=np.int64)
        return int(np.count_nonzero(self.rows[row].read_many(slots) == 0))


def width_for_memory(memory_bytes: int, d: int, counter_bits: int,
                     overhead_bits: float = 0.0) -> int:
    """Largest power-of-two row width fitting in ``memory_bytes``.

    The paper configures every sketch by total allocated memory and
    keeps row widths as powers of two; the per-counter cost is the
    counter itself plus any encoding overhead (1 bit for SALSA's simple
    encoding, ~0.594 for the compact one, 0 for fixed-width baselines).

    Raises ``ValueError`` if not even a 2-counter row fits, so sweeps
    fail loudly rather than building degenerate sketches.
    """
    total_bits = memory_bytes * 8
    per_counter = counter_bits + overhead_bits
    max_w = total_bits / (d * per_counter)
    if max_w < 2:
        raise ValueError(
            f"{memory_bytes}B cannot hold d={d} rows of "
            f"{per_counter}-bit counters"
        )
    w = 1
    while w * 2 <= max_w:
        w *= 2
    return w


def median(values: list[float]) -> float:
    """Median used by Count Sketch row aggregation (mean of middle two
    for even counts)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of empty list")
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2
