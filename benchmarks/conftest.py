"""Shared benchmark configuration.

Every benchmark regenerates one figure/table of the paper's evaluation
(Section 7) and prints it, so ``pytest benchmarks/ --benchmark-only -s``
doubles as the reproduction run.  The dataset/workload scale comes from
the ``REPRO_BENCH_SCALE`` environment variable (``smoke``, ``small`` —
the default — or ``paper``).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import scale_by_name
from repro.experiments.config import ExperimentScale


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The experiment scale for this benchmark session."""
    return scale_by_name(os.environ.get("REPRO_BENCH_SCALE", "small"))


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark fixture.

    The experiments are long, deterministic end-to-end runs whose
    *internal* timings produce the paper's numbers; the benchmark
    fixture wraps them so `--benchmark-only` reports the wall-clock of the
    whole reproduction as well.
    """

    def runner(func):
        return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)

    return runner
