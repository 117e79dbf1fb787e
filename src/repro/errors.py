"""Exception hierarchy for the IDEA reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class AdmError(ReproError):
    """Base class for data-model errors."""


class AdmTypeError(AdmError):
    """A value does not conform to its declared ADM datatype."""


class AdmParseError(AdmError):
    """Raw input bytes/text could not be parsed into an ADM value.

    Carries record provenance when the ingestion path knows it: ``seq`` is
    the adapter-stamped sequence number (file line for a
    :class:`~repro.ingestion.adapter.FileAdapter`), ``source`` names the
    stage or adapter that produced the offending record.  Both default to
    ``None`` for parses outside a feed.
    """

    def __init__(self, message, seq=None, source=None):
        super().__init__(message)
        self.seq = seq
        self.source = source


class StorageError(ReproError):
    """Base class for storage-layer errors."""


class DuplicateKeyError(StorageError):
    """INSERT found an existing record with the same primary key."""

    def __init__(self, key):
        super().__init__(f"duplicate primary key: {key!r}")
        self.key = key


class KeyNotFoundError(StorageError):
    """DELETE/lookup referenced a primary key that does not exist."""

    def __init__(self, key):
        super().__init__(f"primary key not found: {key!r}")
        self.key = key


class IndexError_(StorageError):
    """A secondary index is missing or cannot serve the requested probe."""


class HyracksError(ReproError):
    """Base class for runtime (job execution) errors."""


class JobSpecificationError(HyracksError):
    """A job specification is malformed (bad partition count or placement,
    or a first operator that is not a source)."""


class PartitionHolderError(HyracksError):
    """Cross-job frame exchange failed (unknown holder id, closed holder)."""


class SchedulingError(HyracksError):
    """The discrete-event runtime was driven illegally (time ran backwards,
    a process yielded a non-effect, a negative advance was requested)."""


class DeadlockError(HyracksError):
    """Every live runtime process is waiting on a signal nobody can fire."""


class InjectedCrash(HyracksError):
    """A :class:`~repro.runtime.faults.FaultPlan` crashed a runtime process.

    Thrown *into* the target process generator at the scheduled simulated
    time.  A :class:`~repro.runtime.supervisor.Supervisor` catches it and
    restarts the layer; an unsupervised process dies and the crash
    propagates out of the run.
    """

    def __init__(self, fault=None):
        super().__init__(f"injected crash: {fault!r}")
        self.fault = fault


class SqlppError(ReproError):
    """Base class for SQL++ front-end errors."""


class SqlppSyntaxError(SqlppError):
    """The query text failed to lex or parse."""

    def __init__(self, message, line=None, column=None):
        loc = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line
        self.column = column


class SqlppAnalysisError(SqlppError):
    """Semantic analysis failed (unknown dataset, unbound variable...)."""


class SqlppEvaluationError(SqlppError):
    """Runtime evaluation of an expression failed."""


class UdfError(ReproError):
    """Base class for user-defined-function errors."""


class UdfRegistrationError(UdfError):
    """A UDF could not be registered (name clash, bad arity)."""


class IngestionError(ReproError):
    """Base class for feed/ingestion errors."""


class FeedStateError(IngestionError):
    """A feed operation was issued in the wrong lifecycle state."""


class FeedFailedError(IngestionError):
    """A feed run was escalated to failure by its ingestion policy
    (soft-error escalation, circuit breaker, or exhausted supervisor
    restarts)."""


class CircuitBreakerError(FeedFailedError):
    """Too many consecutive soft errors: the per-feed breaker opened."""

    def __init__(self, feed_name, consecutive, limit, last_error=None):
        super().__init__(
            f"feed {feed_name!r}: circuit breaker opened after "
            f"{consecutive} consecutive soft error(s) (limit {limit}); "
            f"last error: {last_error}"
        )
        self.feed_name = feed_name
        self.consecutive = consecutive
        self.limit = limit
        self.last_error = last_error


class ExternalEnrichmentError(IngestionError):
    """An external enricher exhausted its retry budget and the feed's
    policy escalates external failures (``external_on_failure='fail'``).

    Transient by nature — the remote service may recover — so dead-letter
    replay classifies this family as *retryable*.
    """

    def __init__(self, feed_name, enricher, key, reason):
        super().__init__(
            f"feed {feed_name!r}: external enricher {enricher!r} failed for "
            f"key {key!r} after exhausting its retry budget ({reason})"
        )
        self.feed_name = feed_name
        self.enricher = enricher
        self.key = key
        self.reason = reason


class StreamingJoinError(IngestionError):
    """A stateful UDF cannot be evaluated with the streaming model (Model 3).

    Mirrors Section 4.3.4 of the paper: a hash join whose build side spills
    to disk expects to re-read the probe side, which is impossible when the
    probe side is an unbounded feed.
    """
