"""Peak resident memory that one pass of a workload adds.

    python3 perfbench/memory.py stationary 1

prints the figure in MB.  It runs in a process of its own, away from the
timed passes and the answer checks: the process generates the stream,
runs a warm-up pass, resets its peak resident memory to the current
level (the inputs already resident), runs one full pass and reports how
far the peak rose.  Every block of :data:`MMAP_FROM` bytes or more is
mapped and unmapped at once (a fixed mmap threshold), so the figure
follows the memory the pass holds, not the free heap that earlier
allocations happened to leave behind: with the C library's default
sliding threshold it spread ~8% from seed to seed while the bytes the
pass allocates did not move.
"""

from __future__ import annotations

import ctypes
import gc
import os
import sys

#: the C library already loaded into this process
_LIBC = ctypes.CDLL(None)
_M_MMAP_THRESHOLD = -3
#: allocations of at least this many bytes get pages of their own
MMAP_FROM = 1 << 14


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def reset_peak_rss() -> int:
    """Hand freed heap back to the system, reset this process's peak
    resident memory to its current level, and return that level (kB)."""
    gc.collect()
    _LIBC.malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")
    return _status_kb("VmRSS")


def peak_rss_added_kb(base_kb: int) -> int:
    """Peak resident memory added since :func:`reset_peak_rss`."""
    return _status_kb("VmHWM") - base_kb


def main(name: str, seed: int) -> float:
    if not _LIBC.mallopt(_M_MMAP_THRESHOLD, MMAP_FROM):
        raise RuntimeError("mallopt(M_MMAP_THRESHOLD) failed")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    from perfbench import gen, host, workloads

    chunks = gen.STREAMS[name](seed)
    keys, _counts = gen.exact_counts(chunks)
    ref = host.RefKernel()
    # A full warm-up pass: some of the program's lazy set-up waits for
    # events late in the stream, and a short warm-up left up to 2 MB of
    # it to the measured pass.
    workloads.run_pass(name, seed, chunks, keys, ref)
    base_kb = reset_peak_rss()
    workloads.run_pass(name, seed, chunks, keys, ref)
    return peak_rss_added_kb(base_kb) / 1024


if __name__ == "__main__":
    print(main(sys.argv[1], int(sys.argv[2])))
