"""Holds only HAS_NUMBA, which perfbench/bench.py imports and records."""

HAS_NUMBA = False
