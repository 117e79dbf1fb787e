"""Blocking operators: sort and hash group-by."""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple

from ..frame import Frame, frames_of
from ..job import Operator, OperatorContext


class SortOperator(Operator):
    """Buffer, sort on close, emit (the SortGroupBy local step of Fig. 2)."""

    def __init__(
        self,
        ctx: OperatorContext,
        key_fn: Callable[[dict], object],
        reverse: bool = False,
    ):
        super().__init__(ctx)
        self.key_fn = key_fn
        self.reverse = reverse
        self._buffer: List[dict] = []

    def next_frame(self, frame: Frame) -> None:
        self._buffer.extend(frame.records)

    def close(self) -> None:
        n = len(self._buffer)
        if n > 1:
            self.ctx.charge(self.ctx.cost.sort_per_record_log * n * math.log2(n))
        self._buffer.sort(key=self.key_fn, reverse=self.reverse)
        for frame in frames_of(self._buffer):
            self.emit(frame)
        self._buffer = []
        super().close()


class Aggregator:
    """One aggregate column: ``out[name] = final(reduce(step, records))``."""

    def __init__(self, name: str, init, step, final=None):
        self.name = name
        self.init = init
        self.step = step
        self.final = final or (lambda acc: acc)


class HashGroupByOperator(Operator):
    """Hash-based grouping with pluggable aggregators.

    Emits one record per group: the group key fields plus one field per
    aggregator.  ``key_fn`` returns a tuple of key values; ``key_names``
    names them in the output record.
    """

    def __init__(
        self,
        ctx: OperatorContext,
        key_fn: Callable[[dict], Tuple],
        key_names: List[str],
        aggregators: List[Aggregator],
    ):
        super().__init__(ctx)
        self.key_fn = key_fn
        self.key_names = key_names
        self.aggregators = aggregators
        self._groups: Dict[Tuple, List] = {}

    def next_frame(self, frame: Frame) -> None:
        self.ctx.charge(self.ctx.cost.group_per_record * len(frame))
        for record in frame:
            key = self.key_fn(record)
            accs = self._groups.get(key)
            if accs is None:
                accs = [agg.init() for agg in self.aggregators]
                self._groups[key] = accs
            for i, agg in enumerate(self.aggregators):
                accs[i] = agg.step(accs[i], record)

    def close(self) -> None:
        out: List[dict] = []
        for key, accs in self._groups.items():
            record = dict(zip(self.key_names, key))
            for agg, acc in zip(self.aggregators, accs):
                record[agg.name] = agg.final(acc)
            out.append(record)
        for frame in frames_of(out):
            self.emit(frame)
        self._groups = {}
        super().close()
