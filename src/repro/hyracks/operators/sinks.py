"""Sink operators: where records leave a job."""

from __future__ import annotations

from typing import Callable

from ..frame import Frame
from ..job import Operator, OperatorContext


class DatasetWriteSink(Operator):
    """Write records into a stored dataset partition (the Storage Partition).

    The executor routes records here with a hash-partition connector keyed
    on the primary key, so this sink writes only keys it owns; it charges
    LSM write cost per record plus one log-force per received frame (the
    group-commit the paper says insert jobs must wait for).
    """

    def __init__(self, ctx: OperatorContext, dataset, mode: str = "upsert"):
        super().__init__(ctx)
        if mode not in ("insert", "upsert"):
            raise ValueError(f"unknown write mode: {mode!r}")
        self.dataset = dataset
        self.mode = mode
        self.written = 0

    def next_frame(self, frame: Frame) -> None:
        cost = self.ctx.cost
        self.ctx.charge(cost.store_per_record * len(frame) + cost.log_flush_per_batch)
        write = self.dataset.insert if self.mode == "insert" else self.dataset.upsert
        for record in frame:
            write(record)
            self.written += 1


class CallbackSink(Operator):
    """Hand each produced frame to a callback (feeds partition holders)."""

    def __init__(self, ctx: OperatorContext, callback: Callable[[int, Frame], None]):
        super().__init__(ctx)
        self.callback = callback

    def next_frame(self, frame: Frame) -> None:
        self.ctx.charge(self.ctx.cost.move_per_record * len(frame))
        self.callback(self.ctx.partition, frame)
