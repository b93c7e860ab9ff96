"""The layered serving benchmark (see ``bench/README.md``).

``python3 bench/run.py`` is the one entry point; ``BENCHMARK.json`` at the
repository root names the workloads and metrics this package reports.
"""
