"""Shared configuration for the benchmark suite.

Each benchmark regenerates one table or figure of the paper on proportionally
scaled-down datasets (so the whole suite runs in minutes) and prints the
numeric series that the paper plots.  Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the printed tables; drop it to just collect timings.  Scale and
iteration counts can be raised via the environment variables
``REPRO_BENCH_SCALE`` and ``REPRO_BENCH_ITERATIONS`` for paper-sized runs.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest
from compare_bench import OUT_DIR

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.experiments.harness import ExperimentConfig  # noqa: E402

#: Dataset scale used by the benchmarks (0.1 = 10% of the paper's row counts).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))

#: Repetitions per measured point.
BENCH_ITERATIONS = int(os.environ.get("REPRO_BENCH_ITERATIONS", "2"))


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The experiment configuration shared by every benchmark."""
    return ExperimentConfig(
        scale=BENCH_SCALE,
        iterations=BENCH_ITERATIONS,
        alpha=0.8,
        beta=0.8,
        rho=0.8,
        sample_fraction=0.05,
        seed=2015,
    )


def write_result(filename: str, text: str) -> None:
    """Write one fresh benchmark artefact to git-ignored ``benchmarks/out/``.

    The ``BENCH_*.json`` committed beside this file are the baselines
    ``compare_bench.py`` gates a fresh run against; a run never touches
    them, and only a deliberate re-baseline copies a file over one.
    """
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / filename).write_text(text)
    print(f"  wrote out/{filename}")


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
