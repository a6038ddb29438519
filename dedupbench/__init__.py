"""Benchmark of the flagship dedup pipeline; see README.md."""
