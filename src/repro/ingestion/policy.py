"""Ingestion policies: what a feed does when things go wrong.

Grover & Carey's *Scalable Fault-Tolerant Data Feeds in AsterixDB* (the
predecessor of the paper's framework) attaches a policy to each feed
governing **soft errors** (a malformed record, a per-record UDF failure:
skip it, log it, or fail the feed) and **congestion** (a full intake
buffer: block, throttle admission, spill, or discard).  This module is
that concept for the reproduction:

* :class:`FeedPolicy` — the per-feed knob set, attached via
  ``AsterixLite.connect_feed(..., policy=...)`` or
  ``FeedDefinition(policy=...)``, with the classic presets as
  constructors (:meth:`FeedPolicy.basic`, :meth:`FeedPolicy.spill`,
  :meth:`FeedPolicy.discard`, :meth:`FeedPolicy.throttle`,
  :meth:`FeedPolicy.elastic`);
* :class:`SoftErrorHandler` — the per-run enforcement object shared by
  the parse and UDF stages: it skips, dead-letters (raw text + error +
  provenance into a queryable dataset), or escalates, and trips a
  max-consecutive-failures circuit breaker;
* :class:`CircuitBreaker` — the one consecutive-failure breaker, which
  the soft-error handler (never half-opens) and each external enricher
  (half-opens after a cool-off) configure differently;
* :func:`ensure_dead_letter_dataset` — creates/returns the feed's
  dead-letter dataset so entries are queryable via SQL++.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..adm.parser import serialize
from ..adm.schema import open_type
from ..errors import CircuitBreakerError
from ..runtime.clock import Clock
from ..runtime.metrics import Event, FaultMetrics
from ..runtime.supervisor import RestartPolicy
from ..storage.dataset import Dataset


class SoftErrorAction(enum.Enum):
    """What to do with a record that fails to parse or enrich."""

    FAIL = "fail"  # escalate: the error aborts the feed (the seed behavior)
    SKIP = "skip"  # drop the record, count it
    DEAD_LETTER = "dead_letter"  # route raw text + error + provenance aside


class CongestionAction(enum.Enum):
    """What intake does when the bounded buffer fills (storage stalls)."""

    BLOCK = "block"  # backpressure all the way to the adapter (spill-like)
    DISCARD = "discard"  # drop frames at admission, count them
    THROTTLE = "throttle"  # slow admission with growing delays


class ExternalFailureAction(enum.Enum):
    """What to do with a record whose external enrichment exhausted its
    retry budget (progressive degradation — PIQUE's pay-as-you-go)."""

    PENDING = "pending"  # store with null enrichment + _enrichment_pending
    DEAD_LETTER = "dead_letter"  # route the record aside with provenance
    FAIL = "fail"  # escalate: the failure aborts the feed


@dataclass(frozen=True)
class FeedPolicy:
    """Per-feed fault-handling knobs.

    A field is here because a workload sets it; a setting no workload
    varies is a module constant beside its reader (the adapter idle
    timeout beside ``IntakeJob`` in ingestion/intake_job.py, the
    external chunk size and lane count in ingestion/external.py, the
    restart backoff on :class:`~repro.runtime.supervisor.RestartPolicy`).

    ``max_consecutive_soft_errors`` is the circuit breaker: more than that
    many soft errors *in a row* (successes reset the streak) escalate to
    :class:`~repro.errors.CircuitBreakerError` regardless of the soft-error
    action.  ``0`` disables the breaker.
    """

    name: str = "Basic"
    on_soft_error: SoftErrorAction = SoftErrorAction.FAIL
    on_congestion: CongestionAction = CongestionAction.BLOCK
    max_consecutive_soft_errors: int = 0
    dead_letter_dataset: Optional[str] = None  # default: <feed>_DeadLetters
    # supervised-recovery budget (crashed layer actors)
    max_restarts: int = 3
    # computing worker-pool knobs: the feed runs ``min_computing_workers``
    # concurrent computing actors, and — when ``max_computing_workers`` is
    # larger — the elastic controller scales the pool between the bounds
    # from sampled intake-buffer congestion (its sampling period and
    # thresholds are the ``ELASTIC_*`` constants in ingestion/computing_job.py).
    # A single-worker pool is byte-identical to the pre-pool single
    # computing actor.
    min_computing_workers: int = 1
    max_computing_workers: int = 1
    #: byte budget for the cross-batch enrichment-state cache (hash-join
    #: build tables etc. reused across batches while the reference data's
    #: version is unchanged).  ``0`` — the default — disables the cache
    #: entirely, keeping exact per-batch-rebuild cost accounting.
    state_cache_bytes: int = 0
    #: byte budget for the cross-batch key-level enrichment memo (per-key
    #: correlated-subquery / probe-kernel / external-enrichment results
    #: reused across batches under the same version proofs as the state
    #: cache; external hits skip the remote call and its breaker budget
    #: entirely).  ``0`` — the default — disables the memo, keeping exact
    #: re-enrichment cost accounting.
    enrichment_memo_bytes: int = 0
    #: partitioned-intake knob: run this many adapter partitions, each as
    #: its own supervised intake actor merging into the shared intake
    #: buffer under one logical per-partition ``(partition, seq)`` cursor.
    #: ``1`` (the default) is byte-identical to the single-lane intake.
    #: With more than one partition the feed needs either a splittable
    #: adapter (a :class:`~repro.ingestion.adapter.FileAdapter`) or an
    #: explicit sequence of per-partition adapters.
    intake_partitions: int = 1
    #: intra-batch parallelism knob: a collected batch with more records
    #: than this is split into K contiguous sub-batches dispatched across
    #: the computing worker pool; the sequencer merges sub-results back in
    #: record order before release, so stored output stays byte-identical.
    #: ``0`` (the default) disables sub-batch splitting.
    max_subbatch_records: int = 0
    # external-enrichment resilience knobs — consulted only when the feed
    # has external enrichers attached (see ingestion/external.py, which
    # also holds the fixed chunk size, lane count, call deadline, backoff
    # curve, and half-open probe count).  A failed chunk is retried up to
    # ``external_max_attempts`` total attempts; a per-enricher circuit
    # breaker fails fast once the remote looks hard-down and probes it
    # again after a cool-off.
    external_max_attempts: int = 3
    external_breaker_failures: int = 5  # consecutive failures to open; 0 = off
    external_breaker_reset_seconds: float = 0.5  # open -> half-open cool-off
    external_on_failure: ExternalFailureAction = ExternalFailureAction.PENDING
    # multi-tenant fabric knob — consulted only when the feed runs under a
    # :class:`~repro.ingestion.fabric.FeedFabric`: ``priority`` orders
    # tenants when worker leases or governor bytes are contended (higher
    # wins ties first; lower-priority tenants are preferred recall
    # victims).  Inert for a solo feed, keeping single-feed runs
    # byte-identical.
    priority: int = 1

    def __post_init__(self):
        if self.priority < 1:
            raise ValueError("priority must be >= 1")
        if self.state_cache_bytes < 0:
            raise ValueError("state_cache_bytes must be >= 0")
        if self.enrichment_memo_bytes < 0:
            raise ValueError("enrichment_memo_bytes must be >= 0")
        if self.intake_partitions < 1:
            raise ValueError("intake_partitions must be >= 1")
        if self.max_subbatch_records < 0:
            raise ValueError("max_subbatch_records must be >= 0")
        if self.min_computing_workers < 1:
            raise ValueError("min_computing_workers must be >= 1")
        if self.max_computing_workers < self.min_computing_workers:
            raise ValueError(
                "max_computing_workers must be >= min_computing_workers"
            )
        if self.external_max_attempts < 1:
            raise ValueError("external_max_attempts must be >= 1")
        if self.external_breaker_failures < 0:
            raise ValueError("external_breaker_failures must be >= 0")

    @property
    def elastic_enabled(self) -> bool:
        """True when the worker pool may be resized mid-run."""
        return self.max_computing_workers > self.min_computing_workers

    # ------------------------------------------------------------- presets

    @classmethod
    def basic(cls, **overrides) -> "FeedPolicy":
        """Grover & Carey's *Basic*: any failure fails the feed."""
        return replace(cls(name="Basic", max_restarts=0), **overrides)

    @classmethod
    def spill(cls, **overrides) -> "FeedPolicy":
        """*Spill*: soft errors go to the dead-letter dataset; congestion
        backpressures into the bounded intake buffer (the spill surface)."""
        return replace(
            cls(
                name="Spill",
                on_soft_error=SoftErrorAction.DEAD_LETTER,
                on_congestion=CongestionAction.BLOCK,
            ),
            **overrides,
        )

    @classmethod
    def discard(cls, **overrides) -> "FeedPolicy":
        """*Discard*: soft errors are skipped, congestion drops frames."""
        return replace(
            cls(
                name="Discard",
                on_soft_error=SoftErrorAction.SKIP,
                on_congestion=CongestionAction.DISCARD,
            ),
            **overrides,
        )

    @classmethod
    def throttle(cls, **overrides) -> "FeedPolicy":
        """*Throttle*: dead-letter soft errors, slow admission under
        congestion instead of blocking on the consumer."""
        return replace(
            cls(
                name="Throttle",
                on_soft_error=SoftErrorAction.DEAD_LETTER,
                on_congestion=CongestionAction.THROTTLE,
            ),
            **overrides,
        )

    @classmethod
    def elastic(cls, **overrides) -> "FeedPolicy":
        """*Elastic*: the congestion reaction is *scale out* — the feed may
        grow its computing worker pool up to ``max_computing_workers``
        under sustained intake congestion and shrink back when starved.
        Soft errors dead-letter, congestion otherwise blocks, and the
        restart budget is generous (workers are supervised individually).
        """
        return replace(
            cls(
                name="Elastic",
                on_soft_error=SoftErrorAction.DEAD_LETTER,
                on_congestion=CongestionAction.BLOCK,
                max_consecutive_soft_errors=64,
                max_restarts=8,
                max_computing_workers=4,
            ),
            **overrides,
        )

    # -------------------------------------------------------------- helpers

    def dead_letter_name(self, feed_name: str) -> str:
        return self.dead_letter_dataset or f"{feed_name}_DeadLetters"

    def restart_policy(self) -> RestartPolicy:
        return RestartPolicy(max_restarts=self.max_restarts)


#: the default policy: identical to the seed behavior (fail on anything)
DEFAULT_POLICY = FeedPolicy.basic()


def ensure_dead_letter_dataset(
    catalog: Dict[str, object], feed_name: str, policy: FeedPolicy,
    num_partitions: int = 1,
):
    """Create (or return) the feed's dead-letter dataset in ``catalog``.

    An open-typed dataset keyed by ``dl_id`` — a *stable* key derived from
    the failing stage and the record's provenance (adapter ``seq`` when
    stamped, the raw text otherwise), so a batch replayed after a crash
    upserts the same entries instead of duplicating them.  Each record
    carries the feed name, failing stage, ``seq``, the raw record text,
    and the error message — queryable via SQL++ like any other dataset.
    """
    name = policy.dead_letter_name(feed_name)
    dataset = catalog.get(name)
    if dataset is None:
        dataset = Dataset(
            name,
            open_type("DeadLetterType", dl_id="string"),
            "dl_id",
            num_partitions=num_partitions,
        )
        catalog[name] = dataset
    return dataset


def write_dead_letter(
    dataset, feed_name: str, stage: str, record, error: str, seq=None,
    key=None, **extra,
) -> None:
    """Upsert one entry into a feed's dead-letter dataset.

    ``record`` is what failed: its raw text; its raw ``bytes`` when they
    were not UTF-8, written as text with each undecodable byte ``\\xNN``;
    or, past the parser, the parsed record, written as its ADM
    serialization so a replay parses it back to the same typed values.
    ``dl_id`` is ``stage#key`` with ``key`` defaulting to ``seq`` when
    known and the raw text otherwise — a stable key, so a batch replayed
    after a crash upserts the same entry rather than appending a
    duplicate (the dead-letter analog of pk-upsert dedup).  ``extra``
    fields follow the common ones.
    """
    if isinstance(record, bytes):
        raw = record.decode("utf-8", "backslashreplace")
    elif isinstance(record, str):
        raw = record
    else:
        raw = serialize(record)
    if key is None:
        key = seq if seq is not None else raw
    dataset.upsert(
        {
            "dl_id": f"{stage}#{key}",
            "feed": feed_name,
            "stage": stage,
            "seq": seq,
            "raw": raw,
            "error": error,
            **extra,
        }
    )


class CircuitBreaker:
    """A consecutive-failure circuit breaker: closed → open → half-open.

    ``threshold`` failures in a row (a success resets the streak) open
    the breaker; ``0`` disables it.  An open breaker admits nothing until
    ``reset_seconds`` later, when it half-opens and admits
    ``half_open_probes`` probes: a probe success closes it, a probe
    failure re-opens it for another cool-off.  With the default infinite
    reset it never half-opens.  ``failures`` is the current streak.  The
    breaker counts nothing itself: each transition is a ``"breaker"``
    event (subject ``name``) on ``events``, its owner's stream, at
    ``epoch + now`` (``now`` is on the caller's clock).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        threshold: int,
        reset_seconds: float = float("inf"),
        half_open_probes: int = 1,
        name: str = "",
        events: Optional[List[Event]] = None,
        epoch: float = 0.0,
    ):
        self.threshold = threshold
        self.reset_seconds = reset_seconds
        self.half_open_probes = max(1, half_open_probes)
        self.state = self.CLOSED
        self.failures = 0
        self.open_until = 0.0
        self.probes_left = 0
        self.name = name
        self.events = events if events is not None else []
        self.epoch = epoch

    def _transition(self, now: float, state: str) -> None:
        self.state = state
        event = Event(self.epoch + now, "breaker", self.name, {"state": state})
        self.events.append(event)

    def allow(self, now: float = 0.0) -> bool:
        """May a call start at ``now``?  Moves open → half-open when due."""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if now < self.open_until:
                return False
            self._transition(now, self.HALF_OPEN)
            self.probes_left = self.half_open_probes
        if self.probes_left > 0:
            self.probes_left -= 1
            return True
        return False

    def on_success(self, now: float = 0.0) -> None:
        self.failures = 0
        if self.state != self.CLOSED:
            self._transition(now, self.CLOSED)

    def on_failure(self, now: float = 0.0) -> None:
        if not self.threshold:
            return
        if self.state == self.HALF_OPEN:
            self._open(now)
            return
        self.failures += 1
        if self.state == self.CLOSED and self.failures >= self.threshold:
            self._open(now)

    def _open(self, now: float) -> None:
        self._transition(now, self.OPEN)
        self.open_until = now + self.reset_seconds


class SoftErrorHandler:
    """Per-run soft-error enforcement shared by the parse and UDF stages.

    Thread the same instance through every stage of one feed run so the
    circuit breaker sees the global consecutive-failure streak; its
    transitions go to ``events`` at ``clock``'s time.
    """

    def __init__(
        self,
        feed_name: str,
        policy: FeedPolicy,
        faults: FaultMetrics,
        dead_letter_dataset=None,
        events: Optional[List[Event]] = None,
        clock: Optional[Clock] = None,
    ):
        self.feed_name = feed_name
        self.policy = policy
        self.faults = faults
        self.dead_letters = dead_letter_dataset
        self.clock = clock or Clock()
        limit = policy.max_consecutive_soft_errors
        #: opens on failure ``limit + 1`` and never half-opens: a tripped
        #: breaker fails the run
        self.breaker = CircuitBreaker(
            limit + 1 if limit else 0, name=f"{feed_name}.soft_errors",
            events=events,
        )
        #: a record made it through: the breaker streak resets (a success
        #: never moves a breaker that cannot half-open: no time needed)
        self.note_success = self.breaker.on_success

    def handle(self, stage: str, record, error: Exception, seq=None) -> None:
        """React to one soft error per the policy; raises to escalate.

        ``stage`` is ``'parse'`` or ``'udf'``; ``record`` is the offending
        record as :func:`write_dead_letter` takes it — raw text or bytes
        before parsing, the parsed record after; ``seq`` is the
        adapter-stamped sequence number when known.
        """
        action = self.policy.on_soft_error
        if action is SoftErrorAction.FAIL:
            raise error
        breaker = self.breaker
        breaker.on_failure(self.clock.now)
        if breaker.state == breaker.OPEN:
            raise CircuitBreakerError(
                self.feed_name,
                breaker.failures,
                self.policy.max_consecutive_soft_errors,
                last_error=error,
            ) from error
        if action is SoftErrorAction.SKIP or self.dead_letters is None:
            self.faults.records_skipped += 1
            return
        self.faults.records_dead_lettered += 1
        write_dead_letter(
            self.dead_letters,
            self.feed_name,
            stage,
            record,
            f"{type(error).__name__}: {error}",
            seq=seq,
        )
