"""Loader and wrappers for the native SALSA kernels in ``_native.c``.

They run in C over a :class:`~repro.core.engines.VectorRowEngine`'s
arrays:

* :func:`cu_walk` -- the stream-order conservative update of SALSA
  CUS, equal to :meth:`SalsaConservativeUpdate.update` per item;
* :func:`absorb` -- one row of ``ops.merge``/``ops.subtract``, equal to
  ``ops._absorb_walk`` over ``b``'s counters in slot order;
* :func:`add_partial` -- the vector engine's merge-free batch door
  (``add_batch_partial``), the only implementation it has;
* :func:`replay` -- ``SalsaRow.add_many``'s stream-order replay of the
  updates landing in the superblocks that door flagged dirty: C adds
  every one that needs no merge and hands each one that would merge
  back to :meth:`SalsaRow.add`, so Python runs once per merge.

The walks count merges and saturations into the rows'
``merge_events`` and ``saturations`` exactly as :class:`SalsaRow`
does.  The Python walks stay the reference: callers take them
whenever :func:`usable` says no (bit-packed rows, or no C compiler),
and without the library the vector batch door reports every
superblock dirty, so SALSA CMS/CS batches replay per item through
:meth:`SalsaRow.add`.

On first use the C file is compiled with the system ``cc`` into the
per-user cache directory (``$XDG_CACHE_HOME/repro-salsa``, else
``~/.cache/repro-salsa``, mode 0700), under a name keyed by a hash of
the source, and written atomically (temp name, then ``os.replace``).
Nothing is compiled or loaded until a batch needs a kernel.  When the
build or load fails, one ``RuntimeWarning`` says why and every caller
keeps the Python paths.
"""

from __future__ import annotations

import ctypes
import os
import warnings

import numpy as np

from repro.core.engines import VectorRowEngine
from repro.core.row import MAX

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "_native.c")

#: Private test hook: ``False`` routes every caller to the Python walks.
_ENABLED = True

#: The loaded library; ``None`` until tried, ``False`` if it failed.
_lib = None


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "repro-salsa")
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.stat(path)
    if st.st_uid != os.getuid():
        raise OSError(f"cache directory {path} is not owned by this user")
    if st.st_mode & 0o077:
        os.chmod(path, 0o700)
    return path


def _build() -> str:
    """Path of the compiled library, compiling it if not cached."""
    # Imported here so that importing the package does not pay for them.
    import hashlib
    import platform
    import shutil
    import subprocess
    import tempfile

    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(source + platform.machine().encode()).hexdigest()
    directory = _cache_dir()
    path = os.path.join(directory, f"salsa-{key[:16]}.so")
    if os.path.exists(path):
        return path
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler ('cc') on PATH")
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        try:
            out = subprocess.run([cc, "-O2", "-shared", "-fPIC", "-o", tmp,
                                  _SOURCE], capture_output=True, text=True,
                                 timeout=120)
        except subprocess.TimeoutExpired as exc:
            raise OSError(f"cc timed out: {exc}") from exc
        if out.returncode:
            raise OSError(f"cc failed: {out.stderr.strip()[:500]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _load():
    lib = ctypes.CDLL(_build())
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.salsa_cu_walk.argtypes = [i64, i64, i64, i64] + [ptr] * 5
    lib.salsa_cu_walk.restype = ctypes.c_int
    lib.salsa_absorb.argtypes = [i64] * 5 + [ptr] * 4 + [i64, ptr]
    lib.salsa_absorb.restype = ctypes.c_int
    lib.salsa_add_partial.argtypes = [i64] * 4 + [ptr] * 2 + [i64] + \
        [ptr] * 2 + [i64, ptr]
    lib.salsa_add_partial.restype = i64
    lib.salsa_replay.argtypes = [i64] * 3 + [ptr] * 2 + [i64] + \
        [ptr] * 3 + [i64, ptr]
    lib.salsa_replay.restype = i64
    return lib


def library():
    """The loaded kernel library, or ``None`` when it cannot be built
    (warns once) or the test hook switched it off."""
    global _lib
    if not _ENABLED:
        return None
    if _lib is None:
        try:
            _lib = _load()
        except (OSError, AttributeError) as exc:
            warnings.warn(
                f"SALSA native kernel unavailable ({exc}); using the "
                f"Python reference walks", RuntimeWarning, stacklevel=3)
            _lib = False
    return _lib or None


def usable(rows) -> bool:
    """True when the kernels can run on ``rows`` (all vector rows and
    the library loads); loads the library on first call."""
    return (all(isinstance(row.engine, VectorRowEngine) for row in rows)
            and library() is not None)


# ----------------------------------------------------------------------
# argument checks: C sees only C-contiguous 1-D int64/uint64 arrays of
# the length it is told
# ----------------------------------------------------------------------
def _ptr(arr, dtype, n: int, writable: bool = False) -> int:
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype
            and arr.ndim == 1 and arr.shape[0] == n
            and arr.flags.c_contiguous
            and (arr.flags.writeable or not writable)):
        raise ValueError(
            f"native kernel needs a C-contiguous 1-D {np.dtype(dtype)} "
            f"array of length {n}"
        )
    return arr.ctypes.data


def _row_ptrs(engine) -> tuple[int, int]:
    w = engine.w
    dtype = np.int64 if engine.signed else np.uint64
    return (_ptr(engine.values, dtype, w, True),
            _ptr(engine.levels, np.int64, w, True))


def cu_walk(rows, idx: np.ndarray, values: np.ndarray) -> None:
    """Conservative-update ``values`` (positive int64) into unsigned
    max-merge vector ``rows``; ``idx`` is the ``(d, n)`` int64 matrix
    of :meth:`HashFamily.index_matrix`."""
    lib = library()
    d, n = len(rows), len(values)
    head = rows[0]
    if any((row.w, row.s, row.max_level, row.merge, row.signed)
           != (head.w, head.s, head.max_level, MAX, False)
           for row in rows):
        raise ValueError("cu_walk needs alike unsigned max-merge rows")
    if not (isinstance(idx, np.ndarray) and idx.shape == (d, n)
            and (n == 0 or 0 <= idx.min() <= idx.max() < head.w)):
        raise ValueError(
            f"cu_walk needs a ({d}, {n}) index matrix with entries in "
            f"[0, {head.w})"
        )
    ptrs = [_row_ptrs(row.engine) for row in rows]
    arrays = (ctypes.c_void_p * d)
    counts = np.zeros(2 * d, dtype=np.int64)
    lib.salsa_cu_walk(
        d, n, head.s, head.max_level,
        arrays(*(p[0] for p in ptrs)), arrays(*(p[1] for p in ptrs)),
        arrays(*(_ptr(idx[r], np.int64, n) for r in range(d))),
        _ptr(values, np.int64, n), _ptr(counts, np.int64, 2 * d, True))
    for row, (merges, sats) in zip(rows, counts.reshape(d, 2).tolist()):
        row.merge_events += merges
        row.saturations += sats


def absorb(a_row, b_row, sign: int) -> None:
    """Fold vector row ``b_row`` into vector row ``a_row`` with ``sign``
    (+1 merge, -1 subtract).  Rows must agree on width, base bits,
    ``max_level`` and signedness (``ops`` checks that first)."""
    lib = library()
    a, b = a_row.engine, b_row.engine
    if ((a.w, a.s, a.max_level, a.signed)
            != (b.w, b.s, b.max_level, b.signed)):
        raise ValueError("absorb needs rows of one shape and signedness")
    b_values, b_levels = b.values, b.levels
    if (np.shares_memory(a.values, b_values)
            or np.shares_memory(a.levels, b_levels)):
        # Self-merge: the walk writes a while it reads b, so read a
        # snapshot of b, as the reference walk does.
        b_values, b_levels = b_values.copy(), b_levels.copy()
    a_values, a_levels = _row_ptrs(a)
    counts = np.zeros(2, dtype=np.int64)
    status = lib.salsa_absorb(
        a.w, a.s, a.max_level, int(a.signed), int(a_row.merge == MAX),
        a_values, a_levels, _ptr(b_values, a.values.dtype, a.w),
        _ptr(b_levels, np.int64, a.w), sign,
        _ptr(counts, np.int64, 2, True))
    if status:
        raise ValueError("absorbed row has a malformed layout")
    merges, sats = counts.tolist()
    a_row.merge_events += merges
    a_row.saturations += sats


def add_partial(engine, idxs: np.ndarray, values: np.ndarray,
                apply: bool):
    """Merge-free batch door of a vector row engine: sum the int64
    deltas ``values`` per live counter of slots ``idxs``, flag every
    superblock where a touched counter might overflow (or, unsigned,
    take a negative delta), and with ``apply`` write the rest.  Returns
    ``None`` or the dirty mask over ``w >> max_level`` superblocks."""
    lib = library()
    n = len(idxs)
    mask = np.zeros(engine.w >> engine.max_level, dtype=np.uint8)
    status = lib.salsa_add_partial(
        engine.w, engine.s, engine.max_level, int(engine.signed),
        *_row_ptrs(engine), n, _ptr(idxs, np.int64, n),
        _ptr(values, np.int64, n), int(apply),
        _ptr(mask, np.uint8, len(mask), True))
    if status == -1:
        raise ValueError(f"batch slots must lie in [0, {engine.w})")
    if status == -2:
        raise MemoryError("no scratch memory for the batch check")
    return mask.view(bool) if status else None


def replay(row, idxs: np.ndarray, values: np.ndarray,
           dirty: np.ndarray) -> None:
    """:meth:`SalsaRow.add` of every update of the int64 batch
    ``idxs``/``values`` that lands in a superblock flagged in ``dirty``
    (the mask :func:`add_partial` returned), in stream order.  C adds
    each one that needs no merge; each one that would merge goes
    through ``row.add`` itself, so the Python calls number the merges
    and the merge logic stays in the reference.  Raises ``ValueError``
    before writing anything on a malformed array or a slot outside
    ``[0, w)``."""
    lib = library()
    engine = row.engine
    w, n = engine.w, len(idxs)
    args = (engine.s, engine.max_level, int(engine.signed),
            *_row_ptrs(engine), n, _ptr(idxs, np.int64, n),
            _ptr(values, np.int64, n),
            _ptr(dirty, np.bool_, w >> engine.max_level))
    if n and not 0 <= idxs.min() <= idxs.max() < w:
        raise ValueError(f"batch slots must lie in [0, {w})")
    counts = np.zeros(2, dtype=np.int64)
    counts_ptr = counts.ctypes.data
    t = lib.salsa_replay(*args, 0, counts_ptr)
    while t < n:
        row.add(int(idxs[t]), int(values[t]))
        t = lib.salsa_replay(*args, t + 1, counts_ptr)
    row.saturations += int(counts[1])
