"""Benchmark harness for jacobi-walk: seeded workloads, checks and tracing."""
