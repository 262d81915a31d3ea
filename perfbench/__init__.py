"""Benchmark for the nrt_ray engine; see README.md."""
