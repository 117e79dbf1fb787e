"""Benchmark harness: experiment setup, runs, and table rendering."""

from .harness import (
    BATCH_16X,
    BATCH_1X,
    BATCH_4X,
    BATCH_SIZES,
    COMPLEX_CASES,
    SIMPLE_CASES,
    USE_CASES,
    ExperimentHarness,
    UseCase,
    env_scale,
    env_tweets,
    format_table,
    scaled_batch_sizes,
)
from .reporting import fleet_utilization_table, layer_utilization_table

__all__ = [
    "BATCH_16X",
    "BATCH_1X",
    "BATCH_4X",
    "BATCH_SIZES",
    "COMPLEX_CASES",
    "ExperimentHarness",
    "SIMPLE_CASES",
    "USE_CASES",
    "UseCase",
    "env_scale",
    "env_tweets",
    "format_table",
    "fleet_utilization_table",
    "layer_utilization_table",
    "scaled_batch_sizes",
]
