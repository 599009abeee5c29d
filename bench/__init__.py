"""The repository benchmark: four seeded workloads, an oracle and a tracer.

Run it with ``python3 bench/run.py`` from the repository root (see
``bench/README.md``); ``BENCHMARK.json`` at the root describes its
workloads and metrics.
"""
