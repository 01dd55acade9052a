"""Benchmark of pinfer's two-party protocols; run it with ``perfbench/run.py``."""
