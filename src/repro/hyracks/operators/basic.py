"""Record-at-a-time operators: filter, assign, project, limit, parse."""

from __future__ import annotations

from typing import Callable, List, Optional

from ...adm.parser import parse_json
from ...errors import AdmParseError
from ..frame import Frame
from ..job import Operator, OperatorContext


class FilterOperator(Operator):
    """Keep records satisfying a predicate (the SELECT operator)."""

    def __init__(self, ctx: OperatorContext, predicate: Callable[[dict], bool]):
        super().__init__(ctx)
        self.predicate = predicate

    def next_frame(self, frame: Frame) -> None:
        self.ctx.charge(self.ctx.cost.filter_per_record * len(frame))
        kept = [r for r in frame if self.predicate(r)]
        if kept:
            self.emit(Frame(kept))


class AssignOperator(Operator):
    """Map each record through a function (ASSIGN / projection with exprs).

    ``fn`` may return a record, a list of records (for unnesting), or None
    to drop the record.
    """

    def __init__(
        self,
        ctx: OperatorContext,
        fn: Callable[[dict], object],
        per_record_cost: Optional[float] = None,
    ):
        super().__init__(ctx)
        self.fn = fn
        self.per_record_cost = per_record_cost

    def next_frame(self, frame: Frame) -> None:
        cost = (
            self.per_record_cost
            if self.per_record_cost is not None
            else self.ctx.cost.move_per_record
        )
        self.ctx.charge(cost * len(frame))
        out: List[dict] = []
        for record in frame:
            produced = self.fn(record)
            if produced is None:
                continue
            if isinstance(produced, list):
                out.extend(produced)
            else:
                out.append(produced)
        if out:
            self.emit(Frame(out))


class LimitOperator(Operator):
    """Emit at most N records across all partitions of this operator.

    The shared counter lives on the job runtime so partitions coordinate,
    mirroring Hyracks' global limit enforcement.
    """

    def __init__(self, ctx: OperatorContext, limit: int):
        super().__init__(ctx)
        self.limit = limit
        self._counter_key = ("limit", id(self))

    def next_frame(self, frame: Frame) -> None:
        shared = self.ctx.runtime.shared_state
        key = ("limit_count", self.ctx.runtime.current_job_name, self.limit)
        taken = shared.get(key, 0)
        remaining = self.limit - taken
        if remaining <= 0:
            return
        out = frame.records[:remaining]
        shared[key] = taken + len(out)
        self.ctx.charge(self.ctx.cost.move_per_record * len(out))
        if out:
            self.emit(Frame(out))


_ENVELOPE_KEYS = frozenset({"raw", "seq", "partition"})


class ParseOperator(Operator):
    """Turn raw ``{"raw": <json text>, "seq": <n>}`` envelopes into typed
    ADM records.

    This is the feed *parser*: in the old framework it sits right behind
    the adapter on the intake node; in the new framework it runs inside the
    computing job on every node (Fig. 23's Collector + Parser).

    ``soft_errors`` (a :class:`~repro.ingestion.policy.SoftErrorHandler`)
    governs malformed records: without one, an
    :class:`~repro.errors.AdmParseError` — stamped with the envelope's
    ``seq`` provenance — aborts the job, matching the seed behavior.
    """

    def __init__(self, ctx: OperatorContext, datatype=None, soft_errors=None):
        super().__init__(ctx)
        self.datatype = datatype
        self.soft_errors = soft_errors

    def next_frame(self, frame: Frame) -> None:
        self.ctx.charge(self.ctx.cost.parse_per_record * len(frame))
        out: List[dict] = []
        for envelope in frame:
            if (
                isinstance(envelope, dict)
                and "raw" in envelope
                and _ENVELOPE_KEYS.issuperset(envelope)
            ):
                raw = envelope["raw"]
                seq = envelope.get("seq")
                try:
                    out.append(parse_json(raw, self.datatype))
                except AdmParseError as exc:
                    exc.seq = seq
                    exc.source = "parse"
                    if self.soft_errors is None:
                        raise
                    self.soft_errors.handle("parse", raw, exc, seq=seq)
                    continue
                if self.soft_errors is not None:
                    self.soft_errors.note_success()
            else:  # already parsed (in-memory short-circuit)
                out.append(envelope)
        self.emit(Frame(out))


class UnionAllOperator(Operator):
    """Pass-through that merges several inbound edges into one stream."""

    def next_frame(self, frame: Frame) -> None:
        self.ctx.charge(self.ctx.cost.move_per_record * len(frame))
        self.emit(frame)
