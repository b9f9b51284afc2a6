"""Benchmark of fem-errbal: workloads, tracer and result comparison."""
