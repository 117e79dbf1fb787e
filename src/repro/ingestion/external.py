"""External enrichment: resilient batched clients for remote lookups.

The paper's enrichment UDFs resolve against locally-stored reference data.
Production enrichment pipelines instead call *out* — geo/IP/reputation
lookups against slow, rate-limited, flaky third-party APIs — and the feed
must survive the call failing.  This module brings that world onto the
discrete-event clock, deterministically:

* :class:`ExternalEnricher` — a simulated remote lookup service.  Latency
  is a seeded function of the call counter (no live RNG), and outages,
  slowdowns, and flakiness are scripted via
  :class:`~repro.runtime.faults.EnricherOutage` /
  :class:`~repro.runtime.faults.EnricherSlowdown` /
  :class:`~repro.runtime.faults.EnricherFlaky` entries on the feed's
  :class:`~repro.runtime.faults.FaultPlan`, so two runs with the same plan
  produce equal event streams and counters.

* :class:`EnrichmentCoordinator` — what the feed's computing stage routes
  external probe keys through, per batch: dedupe keys (an API hit per
  *distinct* key, not per record), chunk them into batched calls, fan out
  across ``CONCURRENT_CALLS`` simulated lanes, and wrap every call in the
  full resilience stack — per-call deadline, retries with exponential
  backoff + deterministic jitter, and a per-enricher
  :class:`~repro.ingestion.policy.CircuitBreaker` (closed → open →
  half-open with probe requests).  The knobs workloads vary live on
  :class:`~repro.ingestion.policy.FeedPolicy`; the chunk size, lane
  count, call deadline, backoff curve and half-open probe count are the
  constants below.

Failures degrade progressively instead of stalling ingestion
(:class:`~repro.ingestion.policy.ExternalFailureAction`): after the retry
budget a record is stored with a null enrichment plus a
``_enrichment_pending`` marker, dead-lettered with provenance, or — only
on request — escalated.  :func:`backfill_pending` is the catch-up pass:
once the remote recovers it re-probes stored pending records and clears
their markers, driving ``enrichment_completeness`` back to 1.0.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ExternalEnrichmentError, IngestionError
from ..runtime.faults import FaultPlan
from ..runtime.metrics import Event, ExternalMetrics
from ..sqlpp.memo import EXTERNAL_VERSION_KEY, canonical_probe_key
from .policy import (
    DEFAULT_POLICY,
    CircuitBreaker,
    ExternalFailureAction,
    FeedPolicy,
    write_dead_letter,
)

#: marker field on stored records whose enrichment is not yet resolved;
#: holds the list of still-pending binding labels (``enricher:field``)
PENDING_FIELD = "_enrichment_pending"

#: probe keys per batched call
CHUNK_SIZE = 16
#: simulated in-flight calls per enricher (the fan-out's lanes)
CONCURRENT_CALLS = 4
#: per-call deadline: a slow remote burns exactly this long, then times out
CALL_DEADLINE_SECONDS = 0.05
#: retry backoff: ``initial × multiplier^(attempt-1)`` capped at ``max``,
#: then stretched by a deterministic jitter fraction in ``[0, jitter)``
BACKOFF_INITIAL_SECONDS = 0.01
BACKOFF_MULTIPLIER = 2.0
BACKOFF_MAX_SECONDS = 0.5
BACKOFF_JITTER = 0.25
#: probe calls a half-open circuit breaker admits before deciding
BREAKER_HALF_OPEN_PROBES = 1


def _fraction(*material) -> float:
    """Deterministic pseudo-random fraction in [0, 1) from the material.

    crc32-based so it is stable across processes and platforms —
    Python's ``hash()`` is salted per process and would break
    byte-identical repeats.
    """
    text = ":".join(str(part) for part in material)
    return (zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF) / 4294967296.0


# --------------------------------------------------------------- the remote


@dataclass(frozen=True)
class CallResult:
    """One enricher call's outcome as observed by the client."""

    outcome: str  # 'ok' | 'error' | 'timeout' | 'rate_limited'
    latency: float  # simulated seconds the call took
    results: Optional[Dict] = None  # key -> enrichment value (ok only)
    retry_after: float = 0.0  # server hint on rate_limited


class ExternalEnricher:
    """A simulated remote lookup service on the discrete-event clock.

    ``lookup`` maps one probe key to its enrichment value (pure and
    deterministic; defaults to a stub that tags the key).  Latency is
    ``base + per_key * len(keys)`` scaled by any scripted slowdown and
    stretched by up to ``latency_jitter`` of seeded jitter.  Fault
    behavior comes entirely from the :class:`FaultPlan` passed per call.
    """

    def __init__(
        self,
        name: str,
        lookup: Optional[Callable[[object], object]] = None,
        base_latency_seconds: float = 0.005,
        per_key_latency_seconds: float = 0.0005,
        latency_jitter: float = 0.25,
        error_latency_seconds: float = 0.001,
        seed: int = 0,
    ):
        self.name = name
        self.lookup = lookup or (lambda key: {"enriched_by": name, "key": key})
        self.base_latency_seconds = base_latency_seconds
        self.per_key_latency_seconds = per_key_latency_seconds
        self.latency_jitter = latency_jitter
        self.error_latency_seconds = error_latency_seconds
        self.seed = seed
        #: calls issued so far: the index that seeds each call's jitter
        self.calls = 0

    def _u(self, index: int, salt: str) -> float:
        return _fraction(self.name, self.seed, index, salt)

    def call(
        self,
        keys: Sequence[object],
        now: float,
        deadline: float,
        fault_plan: Optional[FaultPlan] = None,
    ) -> CallResult:
        """Issue one batched lookup starting at simulated time ``now``."""
        index = self.calls
        self.calls += 1
        outcome = "ok"
        retry_after = 0.0
        factor = 1.0
        if fault_plan is not None:
            outage = fault_plan.enricher_outage(self.name, now)
            if outage is not None:
                outcome = outage.mode
                retry_after = outage.retry_after_seconds
            else:
                flaky = fault_plan.enricher_flaky(self.name, now)
                if flaky is not None and self._u(index, "flaky") < flaky.rate:
                    outcome = flaky.mode
            if outcome == "rate_limit":  # fault-plan mode -> call outcome
                outcome = "rate_limited"
            factor = fault_plan.enricher_latency_factor(self.name, now)
        if outcome == "error":
            result = CallResult("error", self.error_latency_seconds)
        elif outcome == "rate_limited":
            result = CallResult(
                "rate_limited", self.error_latency_seconds, retry_after=retry_after
            )
        else:
            latency = (
                self.base_latency_seconds
                + self.per_key_latency_seconds * len(keys)
            ) * factor
            latency *= 1.0 + self.latency_jitter * self._u(index, "latency")
            if outcome == "timeout" or latency > deadline:
                result = CallResult("timeout", deadline)
            else:
                result = CallResult(
                    "ok", latency, results={key: self.lookup(key) for key in keys}
                )
        return result


@dataclass
class EnricherBinding:
    """Route ``record[key_field]`` through ``enricher`` into
    ``record[output_field]``.  Records without the key field (or with a
    null key) pass through untouched."""

    enricher: ExternalEnricher
    key_field: str
    output_field: str

    @property
    def label(self) -> str:
        """Stable identity used in ``_enrichment_pending`` markers."""
        return f"{self.enricher.name}:{self.output_field}"


# ------------------------------------------------------------- coordinator


class EnrichmentCoordinator:
    """Per-batch external fan-out with the full resilience stack.

    One coordinator lives for a feed run (breakers carry state *across*
    batches); :meth:`enrich_batch` is called by the computing stage with
    a batch's output records and the batch's start time, mutates the
    records in place, and returns the simulated seconds the external
    fan-out added to the batch's makespan.

    Its times are run-relative, like the fault windows; every call,
    refused chunk and breaker transition is one event on ``events`` at
    ``epoch +`` its time, and :meth:`finalize` is a view of them.
    """

    def __init__(
        self,
        bindings: Sequence[EnricherBinding],
        policy: FeedPolicy,
        fault_plan: Optional[FaultPlan] = None,
        dead_letters=None,
        feed_name: str = "",
        primary_key: str = "id",
        memo=None,
        events: Optional[List[Event]] = None,
        epoch: float = 0.0,
    ):
        self.bindings = list(bindings)
        self.policy = policy
        self.fault_plan = fault_plan
        self.dead_letters = dead_letters
        self.feed_name = feed_name
        self.primary_key = primary_key
        self.epoch = epoch
        #: optional cross-batch EnrichmentMemo: an L2 hit on a canonical
        #: probe key skips the remote call entirely — no lane time, no
        #: breaker budget.  Only ``"ok"`` outcomes are ever memoized, so
        #: pending/failed keys stay re-probable and
        #: :func:`backfill_pending` semantics survive.
        self.memo = memo
        #: record pk -> 'enriched' | 'pending' | 'dead_lettered'.  Keyed by
        #: primary key so at-least-once batch replays after a crash update
        #: the outcome instead of double-counting the record.
        self._outcomes: Dict[object, str] = {}
        #: the feed run's stream
        self.events = events if events is not None else []
        #: one breaker per enricher: closed → open at
        #: ``external_breaker_failures``, half-open after the cool-off
        self._breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(
                policy.external_breaker_failures,
                policy.external_breaker_reset_seconds,
                BREAKER_HALF_OPEN_PROBES,
                name=name,
                events=self.events,
                epoch=epoch,
            )
            for name in dict.fromkeys(b.enricher.name for b in self.bindings)
        }

    # ------------------------------------------------------------- fan-out

    def enrich_batch(
        self, outputs: List[List[dict]], now: float, only_pending: bool = False
    ) -> float:
        """Enrich one batch's records in place; returns elapsed sim seconds.

        ``outputs`` is the batch's list of record lists (mutated: values
        stored, pending markers added, dead-lettered records removed).
        ``only_pending`` restricts probing to enrichments listed in a
        record's existing pending marker — the backfill mode.
        """
        if not self.bindings:
            return 0.0
        elapsed = 0.0
        memo = self.memo
        resolved: List[Dict[object, Tuple[str, object]]] = []
        for binding in self.bindings:
            # Dedup on the canonical probe key: one remote hit per distinct
            # key per batch (L1), minus any key the cross-batch memo (L2)
            # already resolved — those never reach the fetch stage at all.
            keys: List[Tuple[object, object]] = []
            seen = set()
            memoized: Dict[object, Tuple[str, object]] = {}
            for records in outputs:
                for record in records:
                    raw = self._probe_key(record, binding, only_pending)
                    if raw is None:
                        continue
                    ck = canonical_probe_key(raw)
                    if ck in seen:
                        continue
                    seen.add(ck)
                    if memo is not None:
                        entry = memo.get(
                            ("external", binding.label, ck),
                            EXTERNAL_VERSION_KEY,
                        )
                        if entry is not None:
                            memoized[ck] = ("ok", entry.value)
                            continue
                    keys.append((ck, raw))
            results, binding_elapsed = self._fetch(binding, keys, now + elapsed)
            if memo is not None:
                for ck, (outcome, value) in results.items():
                    if outcome == "ok":
                        memo.put(
                            ("external", binding.label, ck),
                            EXTERNAL_VERSION_KEY,
                            value,
                            1,
                        )
                results.update(memoized)
            elapsed += binding_elapsed
            resolved.append(results)
        for records in outputs:
            kept = []
            for record in records:
                if self._apply(record, resolved, only_pending):
                    kept.append(record)
            records[:] = kept
        return elapsed

    def _probe_key(
        self, record: dict, binding: EnricherBinding, only_pending: bool
    ) -> Optional[object]:
        if only_pending and binding.label not in record.get(PENDING_FIELD, ()):
            return None
        return record.get(binding.key_field)

    def _fetch(
        self,
        binding: EnricherBinding,
        keys: List[Tuple[object, object]],
        now: float,
    ) -> Tuple[Dict[object, Tuple[str, object]], float]:
        """Resolve deduped ``(canonical, raw)`` keys through one enricher.

        Raw keys go over the wire (the remote sees what the record holds);
        results come back keyed by the canonical form, which is what
        :meth:`_apply` and the memo look up.
        """
        results: Dict[object, Tuple[str, object]] = {}
        if not keys:
            return results, 0.0
        enricher = binding.enricher
        breaker = self._breakers[enricher.name]
        chunks = [
            keys[i : i + CHUNK_SIZE] for i in range(0, len(keys), CHUNK_SIZE)
        ]
        # Bounded concurrency as lane simulation: each lane is the sim time
        # it frees up; a chunk runs on the earliest-free lane (lowest index
        # on ties), and the fan-out's elapsed time is the latest lane.
        lanes = [now] * CONCURRENT_CALLS
        for chunk in chunks:
            lane = min(range(len(lanes)), key=lambda i: (lanes[i], i))
            raw_chunk = [raw for _ck, raw in chunk]
            outcome, values, freed = self._call_with_retries(
                enricher, breaker, raw_chunk, lanes[lane]
            )
            lanes[lane] = freed
            for ck, raw in chunk:
                if outcome == "ok":
                    results[ck] = ("ok", values[raw])
                else:
                    results[ck] = (outcome, None)
        return results, max(lanes) - now

    def _call_with_retries(self, enricher, breaker, chunk, t):
        """One chunk through deadline + retry/backoff + breaker."""
        max_attempts = self.policy.external_max_attempts
        events, name = self.events, enricher.name
        attempt = 0
        while True:
            if not breaker.allow(t):
                detail = {"keys": len(chunk)}
                events.append(Event(self.epoch + t, "fail_fast", name, detail))
                return "breaker_open", None, t
            result = enricher.call(chunk, t, CALL_DEADLINE_SECONDS, self.fault_plan)
            attempt += 1
            backoff = None  # the wait before a retry, when one follows
            if result.outcome != "ok" and attempt < max_attempts:
                backoff = min(
                    BACKOFF_MAX_SECONDS,
                    BACKOFF_INITIAL_SECONDS * BACKOFF_MULTIPLIER ** (attempt - 1),
                )
                backoff *= 1.0 + BACKOFF_JITTER * _fraction(
                    name, enricher.seed, enricher.calls, "backoff"
                )
                backoff = max(backoff, result.retry_after)
            detail = {"keys": len(chunk), "latency": result.latency,
                      "outcome": result.outcome, "backoff": backoff}
            events.append(Event(self.epoch + t, "call", name, detail))
            t += result.latency
            if result.outcome == "ok":
                breaker.on_success(t)
                return "ok", result.results, t
            breaker.on_failure(t)
            if backoff is None:
                return result.outcome, None, t
            t += backoff

    # -------------------------------------------------- progressive fallback

    def _apply(self, record, resolved, only_pending) -> bool:
        """Store one record's enrichments; False drops it (dead-lettered)."""
        pending: List[str] = []
        errors: List[str] = []
        required = False
        for binding, results in zip(self.bindings, resolved):
            key = self._probe_key(record, binding, only_pending)
            if key is None:
                continue
            required = True
            outcome, value = results[canonical_probe_key(key)]
            if outcome == "ok":
                record[binding.output_field] = value
            else:
                record[binding.output_field] = None
                pending.append(binding.label)
                errors.append(f"{binding.label}: {outcome}")
        if only_pending:
            # Backfill pass: labels this pass's bindings did not cover stay
            # pending; covered labels survive only if they failed again.
            covered = {binding.label for binding in self.bindings}
            left = [
                label
                for label in record.get(PENDING_FIELD, [])
                if label not in covered
            ] + pending
            if left:
                record[PENDING_FIELD] = left
            else:
                record.pop(PENDING_FIELD, None)
            if required:
                self._note(record, "pending" if left else "enriched")
            return True
        if not required:
            return True
        if not pending:
            record.pop(PENDING_FIELD, None)
            self._note(record, "enriched")
            return True
        action = self.policy.external_on_failure
        if action is ExternalFailureAction.FAIL:
            raise ExternalEnrichmentError(
                self.feed_name,
                pending[0].split(":", 1)[0],
                self._record_key(record),
                "; ".join(errors),
            )
        if action is ExternalFailureAction.DEAD_LETTER and (
            self.dead_letters is not None
        ):
            self._dead_letter(record, pending, errors)
            self._note(record, "dead_lettered")
            return False
        record[PENDING_FIELD] = pending
        self._note(record, "pending")
        return True

    def _record_key(self, record: dict) -> object:
        key = record.get(self.primary_key)
        if key is not None:
            return key
        # Keyless record (shouldn't happen past storage validation): fall
        # back to its canonical probe-key form so dedup still holds — the
        # same normalization the memo and per-batch key dedup use, so two
        # field-order permutations of one record collapse to one key.
        return canonical_probe_key(record)

    def _note(self, record: dict, outcome: str) -> None:
        self._outcomes[self._record_key(record)] = outcome

    def _dead_letter(self, record, pending, errors) -> None:
        write_dead_letter(
            self.dead_letters,
            self.feed_name,
            "external",
            {k: v for k, v in record.items() if k != PENDING_FIELD},
            "; ".join(errors),
            # Parsed records carry no adapter seq, so the stable
            # replay-dedup key is the record's own primary key.
            key=self._record_key(record),
            enrichers=list(pending),
        )

    # ------------------------------------------------------------ reporting

    @property
    def completeness(self) -> float:
        """Fraction of enrichment-requiring records fully enriched."""
        total = len(self._outcomes)
        if total == 0:
            return 1.0
        enriched = sum(1 for o in self._outcomes.values() if o == "enriched")
        return enriched / total

    def finalize(self) -> ExternalMetrics:
        """Per-record outcomes, and views of the events the enrichers put
        on the stream (call and backoff seconds summed in call order)."""
        counts = Counter(self._outcomes.values())
        mine = [e for e in self.events if e.subject in self._breakers]
        calls = [e.detail for e in mine if e.kind == "call"]
        outcomes = [call["outcome"] for call in calls]
        backoffs = [c["backoff"] for c in calls if c["backoff"] is not None]
        states = [e.detail["state"] for e in mine if e.kind == "breaker"]
        return ExternalMetrics(
            calls=len(calls),
            keys_requested=sum(call["keys"] for call in calls),
            retries=len(backoffs),
            errors=outcomes.count("error"),
            timeouts=outcomes.count("timeout"),
            rate_limited=outcomes.count("rate_limited"),
            fail_fast=sum(e.kind == "fail_fast" for e in mine),
            breaker_opens=states.count(CircuitBreaker.OPEN),
            breaker_half_opens=states.count(CircuitBreaker.HALF_OPEN),
            breaker_closes=states.count(CircuitBreaker.CLOSED),
            call_seconds=sum((call["latency"] for call in calls), 0.0),
            backoff_seconds=sum(backoffs, 0.0),
            records_enriched=counts["enriched"],
            records_pending=counts["pending"],
            records_dead_lettered=counts["dead_lettered"],
        )


# ---------------------------------------------------------------- backfill


@dataclass
class BackfillReport:
    """Result of one :func:`backfill_pending` catch-up pass."""

    feed_name: str
    dataset: str
    scanned: int  # stored records that carried the pending marker
    backfilled: int  # records whose pending enrichments all resolved
    still_pending: int
    simulated_seconds: float
    #: post-backfill completeness over the whole dataset
    completeness: float
    metrics: ExternalMetrics = field(default_factory=ExternalMetrics)


def enrichment_completeness(dataset, bindings) -> float:
    """Fraction of stored enrichment-requiring records fully enriched."""
    required = 0
    enriched = 0
    for record in dataset.scan():
        if not any(record.get(b.key_field) is not None for b in bindings):
            continue
        required += 1
        if not record.get(PENDING_FIELD):
            enriched += 1
    return enriched / required if required else 1.0


def backfill_pending(
    system,
    feed_name: str,
    bindings: Optional[Sequence[EnricherBinding]] = None,
    policy: Optional[FeedPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    now: float = 0.0,
) -> BackfillReport:
    """Catch-up pass: re-probe stored ``_enrichment_pending`` records.

    Runs the same coordinator fan-out (deadlines, retries, a fresh
    closed breaker) over every stored record still carrying the
    marker, restricted to its pending enrichments, and upserts repaired
    records back.  With a healthy ``fault_plan`` (or none) this drives
    :func:`enrichment_completeness` back to 1.0.
    """
    state = system._feed(feed_name)
    resolved_policy = policy or state.policy or DEFAULT_POLICY
    resolved_bindings = list(
        bindings if bindings is not None else state.external_enrichers
    )
    if not resolved_bindings:
        raise IngestionError(
            f"feed {feed_name!r} has no external enrichers to backfill"
        )
    dataset = system.catalog[state.target_dataset]
    pending_rows = [
        dict(record) for record in dataset.scan() if record.get(PENDING_FIELD)
    ]
    pending_rows.sort(key=lambda r: str(r.get(dataset.primary_key)))
    memo = None
    registry = getattr(system, "registry", None)
    if resolved_policy.enrichment_memo_bytes > 0 and registry is not None:
        # The backfill pass uses the feed's own cross-batch memo: keys the
        # live feed already resolved are reused, and keys the backfill
        # resolves warm the memo for subsequent batches.  Pending markers
        # themselves are never memoized, so every pending key re-probes.
        _, memo = registry.caches_for(feed_name)
        memo.configure(resolved_policy.enrichment_memo_bytes)
    coordinator = EnrichmentCoordinator(
        resolved_bindings,
        resolved_policy,
        fault_plan=fault_plan,
        feed_name=feed_name,
        primary_key=dataset.primary_key,
        memo=memo,
    )
    outputs = [pending_rows]
    elapsed = coordinator.enrich_batch(outputs, now, only_pending=True)
    backfilled = 0
    for row in pending_rows:
        dataset.upsert(row)
        if not row.get(PENDING_FIELD):
            backfilled += 1
    return BackfillReport(
        feed_name=feed_name,
        dataset=dataset.name,
        scanned=len(pending_rows),
        backfilled=backfilled,
        still_pending=len(pending_rows) - backfilled,
        simulated_seconds=elapsed,
        completeness=enrichment_completeness(dataset, resolved_bindings),
        metrics=coordinator.finalize(),
    )
