"""Operator library for the Hyracks runtime."""

from .basic import (
    AssignOperator,
    FilterOperator,
    LimitOperator,
    ParseOperator,
    UnionAllOperator,
)
from .sinks import CallbackSink, CollectSink, DatasetWriteSink, NullSink
from .sort_group import Aggregator, HashGroupByOperator, SortOperator
from .sources import CallbackSource, DatasetScanSource, ListSource

__all__ = [
    "Aggregator",
    "AssignOperator",
    "CallbackSink",
    "CallbackSource",
    "CollectSink",
    "DatasetScanSource",
    "DatasetWriteSink",
    "FilterOperator",
    "HashGroupByOperator",
    "LimitOperator",
    "ListSource",
    "NullSink",
    "ParseOperator",
    "SortOperator",
    "UnionAllOperator",
]
