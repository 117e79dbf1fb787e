"""The feed parser operator."""

from __future__ import annotations

from typing import List

from ...adm.parser import parse_json
from ...errors import AdmParseError
from ..frame import Frame
from ..job import Operator, OperatorContext


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
        # per frame, not per envelope: the module global is what a tracer
        # rebinds, so it is read afresh here on every frame
        parse, datatype, soft_errors = parse_json, self.datatype, self.soft_errors
        is_envelope = _ENVELOPE_KEYS.issuperset
        out: List[dict] = []
        append = out.append
        for envelope in frame.records:
            if isinstance(envelope, dict) and "raw" in envelope and is_envelope(envelope):
                try:
                    append(parse(envelope["raw"], datatype))
                except AdmParseError as exc:
                    exc.seq = seq = envelope.get("seq")
                    exc.source = "parse"
                    if soft_errors is None:
                        raise
                    soft_errors.handle("parse", envelope["raw"], exc, seq=seq)
                    continue
                if soft_errors is not None:
                    soft_errors.note_success()
            else:  # already parsed (in-memory short-circuit)
                append(envelope)
        self.emit(Frame(out))
