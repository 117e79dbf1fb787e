"""The multi-tenant feed fabric: one cluster, many feeds, shared budgets.

Production clusters don't run one feed — they run dozens, and the
resources that matter (computing workers, cache memory) are cluster-wide.
Grover & Carey's data-feeds paper frames ingestion policy as a resource
-arbitration problem; this module builds that arbiter for the repo's
layered feeds.  Two coupled schedulers:

* :class:`FeedFabric` — a **global worker budget** over the feeds' own
  pools.  Each feed keeps its controller and its
  :class:`~repro.ingestion.computing_job.ComputingJob`, which owns every
  worker count; the fabric reads them and decides only *whether a grow
  is funded*.  Every sample tick the controller forwards its
  :class:`FeedSignals`; a grow either takes a spare worker at once or
  waits (priority first, then waiting longest) while the fabric recalls
  a worker from an uncongested tenant above its
  ``min_computing_workers`` floor.  The fabric moves a pool only by the
  controller's own verbs, ``spawn_worker`` and ``retire`` (a shrink
  token plus a ``kick``), so a recalled worker exits at a batch boundary
  and its slot funds the waiting grow.  Floors are inviolable: a
  victim's slack is its running workers less every pending retire, its
  own controller's included.

* :class:`MemoryGovernor` — one cluster-wide cache budget arbitrated
  across every tenant's :class:`~repro.sqlpp.state_cache.StateCache` and
  :class:`~repro.sqlpp.memo.EnrichmentMemo` instead of N fixed private
  budgets.  Rebalanced at batch boundaries: each cache's share is
  proportional to ``priority × FAIR_SHARE × (floor + observed hit
  ratio)``, so bytes flow toward tenants demonstrating reuse and
  eviction pressure flows to the lowest-value tenant (a shrink grant
  evicts immediately via ``StateCache.configure``).

Determinism: the fabric is driven *only* from inside runtime processes
(controller ticks, worker exits) on the shared discrete-event clock, its
tie-breaks are total orders (priority, waiting time, registration order,
tenant name), and it allocates no randomness — so two runs of the same
fleet produce equal event streams and byte-identical stored outputs.
Per-feed stored output is byte-identical fabric-on vs fabric-off because
the fabric changes only *pool size over time*, and the sequencer already
guarantees order-preserving release at any pool size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import IngestionError
from ..runtime.faults import FaultPlan
from ..runtime.metrics import Event

#: governor grants are quantized so tiny hit-ratio jitter doesn't churn
#: ``configure`` calls (and grant-log noise) every rebalance
GRANT_GRANULARITY_BYTES = 4096

#: base utility weight for a tenant with zero observed hits — keeps a
#: cold cache funded long enough to earn its first reuse
COLD_TENANT_WEIGHT = 0.25

#: every tenant's relative claim on the governed cache budget: uniform,
#: so only priority and observed hit ratio move bytes between tenants
FAIR_SHARE = 1.0

#: the lease events that move a tenant's held count; a ``"recall"`` only
#: asks the victim to retire a worker, whose ``"release"`` follows
LEASE_STEPS = ("floor", "acquire", "grant", "release", "deregister")
LEASE_KINDS = LEASE_STEPS + ("recall",)


@dataclass(frozen=True)
class FeedSignals:
    """One elastic-controller sample tick's congestion bid."""

    congested: bool = False  # the controller's own congestion verdict
    starved: bool = False  # the controller's own starvation verdict


@dataclass
class FeedLaunch:
    """One feed's slot in a multi-feed :meth:`AsterixLite.start_feeds` run."""

    feed: str
    adapter: object = None  # defaults to the feed's attached adapter
    batch_size: int = 420
    policy: object = None  # FeedPolicy override for this run
    fault_plan: Optional[FaultPlan] = None
    update_client: object = None
    balanced_intake: bool = False


def merge_fault_plans(
    plans: Sequence[Optional[FaultPlan]],
) -> Optional[FaultPlan]:
    """Concatenate per-feed fault plans into one run-wide plan.

    A shared multi-feed runtime installs exactly one plan, so per-feed
    plans are merged field-by-field.  Crash/stall targets should be
    feed-scoped process names (``feed-<name>.computing``) — a bare layer
    target (``'computing'``) in a merged plan matches *every* feed's
    actors, which is occasionally wanted (cluster-wide chaos) but rarely
    what a per-feed scenario means.
    """
    live = [p for p in plans if p is not None and not p.empty]
    if not live:
        return None
    if len(live) == 1:
        return live[0]
    return FaultPlan(
        crashes=[c for p in live for c in p.crashes],
        stalls=[s for p in live for s in p.stalls],
        channel_failures=[c for p in live for c in p.channel_failures],
        disconnects=[d for p in live for d in p.disconnects],
        adapter_failures=[a for p in live for a in p.adapter_failures],
        enricher_faults=[e for p in live for e in p.enricher_faults],
        seed=live[0].seed,
    )


class _WorkerTenant:
    """One feed's seat in the fabric: its bounds and its pool.

    The pool (the feed's :class:`~repro.ingestion.computing_job.ComputingJob`)
    owns every worker count; :attr:`held` and :attr:`retiring` read it, and
    read 0 once the feed deregisters."""

    __slots__ = ("name", "floor", "cap", "priority", "pool", "signals",
                 "wants_since", "active")

    def __init__(self, name, policy, pool):
        self.name = name
        self.floor = policy.min_computing_workers
        self.cap = policy.max_computing_workers
        self.priority = policy.priority
        self.pool = pool
        self.signals: Optional[FeedSignals] = None
        #: when the feed's unfunded grow began waiting (None: none waits)
        self.wants_since: Optional[float] = None
        self.active = True

    @property
    def held(self) -> int:
        return self.pool.workers_running if self.active else 0

    @property
    def retiring(self) -> int:
        return self.pool.shrink_tokens if self.active else 0


class _CacheTenant:
    """One governed cache's account inside the memory governor."""

    __slots__ = ("feed", "kind", "cache", "priority", "budget", "smoothed")

    def __init__(self, feed, kind, cache, priority):
        self.feed = feed
        self.kind = kind  # 'state' | 'memo'
        self.cache = cache
        self.priority = priority
        self.budget = 0
        self.smoothed: Optional[float] = None  # EWMA windowed hit ratio


class MemoryGovernor:
    """One cluster-wide cache budget arbitrated across tenant caches.

    Weights are ``priority × FAIR_SHARE × (COLD_TENANT_WEIGHT + EWMA
    windowed hit ratio)``; budgets are the weight-proportional split of
    ``total_bytes`` quantized to :data:`GRANT_GRANULARITY_BYTES`, with
    the quantization remainder going to the heaviest tenant (stable
    tie-break by ``(feed, kind)``).  A shrink takes effect immediately —
    ``StateCache.configure`` evicts LRU-first down to the new grant —
    which is exactly "eviction pressure flows to the lowest-value
    tenant".  Every rebalance is a ``"rebalance"`` event and every budget
    move a ``"governor"`` event (subject the feed, detail the cache kind
    and bytes) on ``events``: the fabric's stream, or the governor's own.
    """

    def __init__(self, total_bytes: int, events: Optional[List[Event]] = None):
        if total_bytes <= 0:
            raise ValueError("MemoryGovernor needs a positive byte budget")
        self.total_bytes = int(total_bytes)
        self._tenants: List[_CacheTenant] = []
        self.events = events if events is not None else []

    def register(self, feed, kind, cache, priority, now=0.0):
        entry = _CacheTenant(feed, kind, cache, priority)
        self._tenants.append(entry)
        self.rebalance(now)
        return entry

    def deregister(self, feed, now: float = 0.0) -> None:
        before = len(self._tenants)
        self._tenants = [e for e in self._tenants if e.feed != feed]
        if self._tenants and len(self._tenants) != before:
            self.rebalance(now)

    def _weight(self, entry: _CacheTenant) -> float:
        utility = (
            entry.smoothed
            if entry.smoothed is not None
            else entry.cache.hit_ratio
        )
        return entry.priority * FAIR_SHARE * (COLD_TENANT_WEIGHT + utility)

    def rebalance(self, now: float) -> None:
        """Re-split the global budget by current tenant utility."""
        if not self._tenants:
            return
        self.events.append(Event(now, "rebalance", "governor", {}))
        # Fold the just-ended observation window into each tenant's EWMA
        # before weighing — mid-run hit-ratio shifts move bytes within a
        # few batch boundaries instead of being damped by all of history.
        for entry in self._tenants:
            hits, misses = entry.cache.window_counts()
            if hits + misses > 0:
                ratio = hits / (hits + misses)
                entry.smoothed = (
                    ratio
                    if entry.smoothed is None
                    else 0.5 * entry.smoothed + 0.5 * ratio
                )
            entry.cache.mark_window()
        weights = [(self._weight(e), e) for e in self._tenants]
        total_weight = sum(w for w, _ in weights) or 1.0
        gran = GRANT_GRANULARITY_BYTES
        budgets: List[Tuple[_CacheTenant, int]] = []
        assigned = 0
        for weight, entry in weights:
            share = int(self.total_bytes * weight / total_weight)
            share = (share // gran) * gran
            budgets.append((entry, share))
            assigned += share
        leftover = self.total_bytes - assigned
        if leftover > 0:
            # heaviest tenant absorbs the quantization remainder
            top = max(
                weights, key=lambda pair: (pair[0], pair[1].feed, pair[1].kind)
            )[1]
            budgets = [
                (e, b + leftover if e is top else b) for e, b in budgets
            ]
        for entry, budget in budgets:
            if budget != entry.budget:
                entry.budget = budget
                entry.cache.configure(budget)
                detail = {"cache": entry.kind, "bytes": budget}
                self.events.append(Event(now, "governor", entry.feed, detail))

    # ----------------------------------------------------------- reporting

    def summary(self) -> Dict[str, object]:
        return {
            "total_bytes": self.total_bytes,
            "rebalances": sum(event.kind == "rebalance" for event in self.events),
            "grants": sum(event.kind == "governor" for event in self.events),
            "tenants": {
                f"{e.feed}/{e.kind}": {
                    "budget_bytes": e.budget,
                    "resident_bytes": e.cache.current_bytes,
                    "entries": len(e.cache),
                    "hit_ratio": e.cache.hit_ratio,
                    "evictions": e.cache.evictions,
                }
                for e in sorted(
                    self._tenants, key=lambda e: (e.feed, e.kind)
                )
            },
        }


class FeedFabric:
    """The cluster-level worker arbiter over the feeds' pools (plus an
    optional governor).

    ``total_workers`` is the cluster's computing-worker budget; the sum
    of the fleet's ``min_computing_workers`` floors must fit in it
    (:meth:`validate`, before any feed launches).  The fabric stores no
    worker count: a tenant's are views of its registered pool.
    ``memory_bytes > 0`` additionally attaches a :class:`MemoryGovernor`
    arbitrating one cache budget across every governed feed (the
    governor, not the policy's byte count, sets the budget of each cache
    the feed's policy enables).

    A fabric arbitrates exactly one ``start_feeds`` run: its event
    stream is the run's artifact, read after the run through its views
    (:attr:`lease_events`, :meth:`summary`, :meth:`tenant_report`).
    Build a fresh fabric per run.
    """

    def __init__(self, total_workers: int, memory_bytes: int = 0):
        if total_workers < 1:
            raise ValueError("total_workers must be >= 1")
        self.total_workers = int(total_workers)
        #: lease events (subject the feed; its ``held`` and the fleet's
        #: ``total`` after; a recall names the waiting ``bids``), grants
        self.events: List[Event] = []
        self.governor = (
            MemoryGovernor(memory_bytes, self.events) if memory_bytes > 0 else None
        )
        self._tenants: Dict[str, _WorkerTenant] = {}
        self._runtime = None
        self.used = False

    # ------------------------------------------------------------ lifecycle

    def bind(self, runtime) -> None:
        """Attach the run's shared runtime (for lease timestamps)."""
        if self.used:
            raise IngestionError(
                "a FeedFabric arbitrates one run; build a fresh fabric "
                "for a new run"
            )
        self.used = True
        self._runtime = runtime

    def validate(self, policies: Sequence[Tuple[str, object]]) -> None:
        """Reject fleets whose worker floors exceed the global budget."""
        floors = sum(policy.min_computing_workers for _, policy in policies)
        if floors > self.total_workers:
            raise IngestionError(
                f"feed worker floors sum to {floors}, exceeding the "
                f"fabric's total_workers budget of {self.total_workers}"
            )

    def register_feed(self, name: str, policy, pool) -> None:
        """Enroll one feed's pool, its floor workers already running."""
        if name in self._tenants:
            raise IngestionError(f"feed {name!r} already registered")
        self._tenants[name] = tenant = _WorkerTenant(name, policy, pool)
        self._record(tenant, "floor")

    def register_cache(self, name: str, cache, policy) -> None:
        """Enroll one of a feed's own caches with the governor."""
        if self.governor is None:
            raise IngestionError("this fabric has no memory governor")
        self.governor.register(
            name, cache.kind, cache, policy.priority, now=self._now(),
        )

    def deregister_feed(self, name: str) -> None:
        """The feed's run is over: drop its waiting grow, free its leases."""
        tenant = self._tenants.get(name)
        if tenant is None:
            return
        # an aborted feed may exit with workers never individually
        # released; inactive, its pool counts for nothing
        tenant.active = False
        tenant.wants_since = None
        self._record(tenant, "deregister")
        if self.governor is not None:
            self.governor.deregister(name, now=self._now())
        self._fund_waiting()

    # ------------------------------------------------------------- arbitration

    def tick(self, name: str, signals: FeedSignals) -> None:
        """One controller sample tick: refresh this feed's signals."""
        tenant = self._tenants[name]
        tenant.signals = signals
        if not signals.congested or tenant.held >= tenant.cap:
            tenant.wants_since = None  # congestion cleared or the cap closed

    def acquire(self, name: str) -> bool:
        """A congested feed's grow request: spawn the worker now, or wait.

        Returns True when spare budget funds the grow (the fabric spawns
        the worker); False when the grow waits — the fabric spawns it
        once a worker frees up, and recalls one while waiting grows
        outnumber the retires pending in the other pools.  A waiting grow
        that stays congested comes back here every
        ``ELASTIC_SUSTAINED_SAMPLES`` ticks, so a recall its victim
        cancelled goes out again then.
        """
        tenant = self._tenants[name]
        if tenant.held >= tenant.cap:
            return False
        if self.spare > 0:
            tenant.pool.spawn_worker("grow")
            self._record(tenant, "acquire")
            return True
        if tenant.wants_since is None:
            tenant.wants_since = self._now()
        retiring = sum(t.retiring for t in self._tenants.values() if t is not tenant)
        if retiring < len(self._waiting()):
            self._issue_recall()
        return False

    def release_worker(self, name: str) -> None:
        """A worker exited (EOF drain or recalled retire): free its slot."""
        tenant = self._tenants[name]
        if not tenant.active:
            return
        self._record(tenant, "release")
        self._fund_waiting()

    def note_batch_released(self, name: str) -> None:
        """A batch boundary: the governor's rebalance point."""
        if self.governor is not None:
            self.governor.rebalance(self._now())

    # ------------------------------------------------------------ internals

    @property
    def total_held(self) -> int:
        return sum(t.held for t in self._tenants.values())

    @property
    def spare(self) -> int:
        return self.total_workers - self.total_held

    def _now(self) -> float:
        """The shared simulated clock (0.0 before :meth:`bind`)."""
        return self._runtime.clock.now if self._runtime is not None else 0.0

    def _epoch(self) -> float:
        return self._runtime.epoch if self._runtime is not None else 0.0

    def _record(self, tenant: _WorkerTenant, kind: str, **extra) -> None:
        detail = {"held": tenant.held, "total": self.total_held, **extra}
        self.events.append(Event(self._now(), kind, tenant.name, detail))

    def _waiting(self) -> List[_WorkerTenant]:
        """Waiting grows, best first: priority, then waiting longest, then
        registration order."""
        return sorted(
            (t for t in self._tenants.values() if t.wants_since is not None),
            key=lambda t: (-t.priority, t.wants_since),
        )

    def _issue_recall(self) -> None:
        """Ask the best victim to retire one worker at its next batch
        boundary: an uncongested pool with no grow waiting whose running
        workers less its pending retires (its own controller's included)
        stay above its floor, so floors always hold.
        """
        candidates = [
            t
            for t in self._tenants.values()
            if t.wants_since is None
            and t.held - t.retiring > t.floor
            and (t.signals is None or not t.signals.congested)
        ]
        if not candidates:
            return
        # prefer explicitly starved tenants, then lowest priority, then
        # most slack above floor; tenant name as the total-order tiebreak
        victim = min(
            candidates,
            key=lambda t: (
                0 if (t.signals is not None and t.signals.starved) else 1,
                t.priority,
                -(t.held - t.retiring - t.floor),
                t.name,
            ),
        )
        victim.pool.retire()
        self._record(victim, "recall", bids=tuple(t.name for t in self._waiting()))

    def _fund_waiting(self) -> None:
        """Fund waiting grows from spare capacity, best first."""
        for tenant in self._waiting():
            if self.spare <= 0:
                return
            tenant.wants_since = None
            tenant.pool.spawn_worker("grant")
            self._record(tenant, "grant")

    # ------------------------------------------------- reporting (views)

    @property
    def lease_events(self) -> List[Tuple[float, str, str, int, int]]:
        """The lease events as ``(sim_s, feed, kind, feed_held,
        total_held)`` tuples, at run-relative seconds."""
        epoch = self._epoch()
        return [
            (e.at - epoch, e.subject, e.kind, e.detail["held"], e.detail["total"])
            for e in self.events
            if e.kind in LEASE_KINDS
        ]

    def tenant_report(self, name: str) -> Dict[str, object]:
        tenant, epoch = self._tenants[name], self._epoch()
        mine = [e for e in self.events if e.subject == name]
        kinds = [e.kind for e in mine]
        steps = [e for e in mine if e.kind in LEASE_STEPS]
        peak_held = max((e.detail["held"] for e in steps), default=0)
        return {
            "floor": tenant.floor,
            "cap": tenant.cap,
            "priority": tenant.priority,
            "fair_share": FAIR_SHARE,
            "peak_held": peak_held,
            "borrowed_workers": max(0, peak_held - tenant.floor),
            "leases_acquired": kinds.count("acquire") + kinds.count("grant"),
            "leases_returned": kinds.count("release"),
            "recalls_received": kinds.count("recall"),
            "lease_timeline": [(e.at - epoch, e.detail["held"]) for e in steps],
        }

    def summary(self) -> Dict[str, object]:
        kinds = [e.kind for e in self.events]
        totals = [e.detail["total"] for e in self.events if e.kind in LEASE_STEPS]
        return {
            "total_workers": self.total_workers,
            "peak_total_held": max(totals, default=0),
            "leases_granted": kinds.count("acquire") + kinds.count("grant"),
            "recalls_issued": kinds.count("recall"),
            "governor": (
                self.governor.summary() if self.governor is not None else None
            ),
            "tenants": {
                name: self.tenant_report(name)
                for name in sorted(self._tenants)
            },
        }
