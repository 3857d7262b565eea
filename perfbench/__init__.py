"""Benchmark harness for thermofock; see run.py."""
