"""Shared configuration for the paper's figures and tables.

Each benchmark here regenerates one table or figure of the paper on
proportionally scaled-down datasets (so the whole suite runs in under
a minute) and prints the numeric series that the paper plots.  Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the printed tables; drop it to just collect timings.  Scale and
iteration counts can be raised via the environment variables
``REPRO_BENCH_SCALE`` and ``REPRO_BENCH_ITERATIONS`` for paper-sized runs.

Serving speed and work are measured elsewhere: ``bench/run.py`` times the
serving workloads end to end and layer by layer, and the deterministic
counter and parity gates of the serving layer are tier-1 tests under
``tests/``.

Helpers reach the benchmarks as fixtures (``bench_config``, ``run_once``),
never through ``from conftest import ...``: every ``conftest.py`` on a
command line is the module ``conftest``, and the one loaded last owns the
name, so an import by name breaks ``pytest benchmarks tests/residency``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

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


@pytest.fixture
def run_once(benchmark):
    """``run_once(func, *args, **kwargs)``: one call under pytest-benchmark timing."""

    def run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return run
