"""Hyracks substrate: frames, job pipelines, operators, connectors, executor."""

from .connectors import HashPartition, OneToOne, RoundRobin
from .cost import DEFAULT_COST_MODEL, CostModel, WorkMeter
from .executor import JobResult, LocalJobRunner
from .frame import DEFAULT_FRAME_CAPACITY, Frame, FrameWriter, frames_of
from .job import (
    JobSpecification,
    Operator,
    OperatorContext,
    OperatorDescriptor,
    SourceOperator,
)
from .partition_holder import PassivePartitionHolder

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "DEFAULT_FRAME_CAPACITY",
    "Frame",
    "FrameWriter",
    "HashPartition",
    "JobResult",
    "JobSpecification",
    "LocalJobRunner",
    "OneToOne",
    "Operator",
    "OperatorContext",
    "OperatorDescriptor",
    "PassivePartitionHolder",
    "RoundRobin",
    "SourceOperator",
    "WorkMeter",
    "frames_of",
]
