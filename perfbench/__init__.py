"""Benchmark for the SALSA reproduction: see perfbench/run.py and BENCHMARK.json."""
