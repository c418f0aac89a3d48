"""Byte accounting: weighted-frequency estimation.

Section IV notes practitioners "allocate ... 64-bit counters for
measuring weighted-frequency (e.g. byte counts)".  That is exactly
where fixed-width counters hurt most: a 63-bit-per-cell CMS (the
widest the fixed-width CMS takes; at this budget it fits as many
counters per row as 64 bits would) fits a quarter as many counters
per row as SALSA's 8-bit cells, yet almost every flow's byte count
fits in far fewer bits.

This example weights a skewed packet stream with realistic (bimodal)
packet sizes and compares byte-count estimates from a 63-bit baseline
CMS and a SALSA CMS at the same memory budget.

Run:  python examples/byte_accounting.py
"""

from repro import CountMinSketch, SalsaCountMin, zipf_trace
from repro.streams import packet_size_weights

MEMORY = 32 * 1024
STREAM = 100_000


def main() -> None:
    packets = zipf_trace(STREAM, skew=1.1, universe=30_000, seed=11)
    stream = packet_size_weights(packets, seed=11)

    baseline = CountMinSketch.for_memory(MEMORY, d=4, counter_bits=63, seed=2)
    salsa = SalsaCountMin.for_memory(MEMORY, d=4, s=8, seed=2)
    print(f"memory budget {MEMORY // 1024}KB:")
    print(f"  63-bit baseline: {baseline.w} counters/row")
    print(f"  SALSA (s=8):     {salsa.w} counters/row "
          f"({salsa.w / baseline.w:.1f}x)")

    truth: dict[int, int] = {}
    for item, size in stream:
        baseline.update(item, size)
        salsa.update(item, size)
        truth[item] = truth.get(item, 0) + size

    total_bytes = sum(truth.values())
    print(f"\nstream: {STREAM:,} packets, {total_bytes / 1e6:.1f} MB, "
          f"{len(truth):,} flows")

    heavy = sorted(truth, key=truth.get, reverse=True)[:8]
    print(f"\n{'flow':>8} {'true bytes':>12} {'baseline':>12} {'SALSA':>12}")
    for x in heavy:
        print(f"{x:>8} {truth[x]:>12,} {baseline.query(x):>12,} "
              f"{salsa.query(x):>12,}")

    base_err = sum(baseline.query(x) - b for x, b in truth.items())
    salsa_err = sum(salsa.query(x) - b for x, b in truth.items())
    print(f"\ntotal over-estimation [bytes]: baseline={base_err:,}  "
          f"SALSA={salsa_err:,}  ({base_err / max(1, salsa_err):.1f}x less)")
    merges = sum(row.merge_events for row in salsa.rows)
    print(f"SALSA merges: {merges}; byte counts this large still fit -- "
          "counters grow exactly where the elephants are.")


if __name__ == "__main__":
    main()
