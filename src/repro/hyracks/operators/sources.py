"""Source operators: where records enter a job."""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..frame import DEFAULT_FRAME_CAPACITY, frames_of
from ..job import OperatorContext, SourceOperator


class ListSource(SourceOperator):
    """Emit a constant collection of records (the ``TweetsBatch`` of Fig. 10).

    When the descriptor has several partitions, each instance emits the
    slice of records assigned to its partition (round-robin by index),
    unless ``partition_lists`` pre-assigns explicit per-partition lists.
    """

    def __init__(
        self,
        ctx: OperatorContext,
        records: Iterable[dict] = (),
        partition_lists: Optional[List[List[dict]]] = None,
        per_record_cost: float = 0.0,
    ):
        super().__init__(ctx)
        if partition_lists is not None:
            self._records = list(partition_lists[ctx.partition])
        else:
            all_records = list(records)
            self._records = all_records[ctx.partition :: ctx.num_partitions]
        self.per_record_cost = per_record_cost

    def run(self) -> None:
        if self.per_record_cost:
            self.ctx.charge(self.per_record_cost * len(self._records))
        for frame in frames_of(self._records, DEFAULT_FRAME_CAPACITY):
            self.emit(frame)
