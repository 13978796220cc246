"""Benchmark for the qmht package; see perfbench/README.md."""
