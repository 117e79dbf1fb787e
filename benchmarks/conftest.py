"""Shared benchmark fixtures.

Each figure benchmark sweeps its paper configuration, prints the resulting
table (bypassing capture so it appears in ``--benchmark-only`` output),
writes it under ``benchmarks/results/``, and times one representative
configuration with pytest-benchmark.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench import ExperimentHarness, env_scale

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def harness():
    """One harness for every benchmark: it fixes scale, seed and
    partitioning and holds no state a run could leave behind."""
    return ExperimentHarness(reference_scale=env_scale(), num_partitions=6)


@pytest.fixture
def emit(capsys):
    """Print a results table live and persist it to benchmarks/results/."""

    def _emit(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print(f"\n{text}\n")

    return _emit
