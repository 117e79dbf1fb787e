"""Operator library for the Hyracks runtime."""

from .basic import ParseOperator
from .sinks import CallbackSink, DatasetWriteSink
from .sources import ListSource

__all__ = [
    "CallbackSink",
    "DatasetWriteSink",
    "ListSource",
    "ParseOperator",
]
