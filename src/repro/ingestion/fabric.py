"""The multi-tenant feed fabric: one cluster, many feeds, shared budgets.

Production clusters don't run one feed — they run dozens, and the
resources that matter (computing workers, cache memory) are cluster-wide.
Grover & Carey's data-feeds paper frames ingestion policy as a resource
-arbitration problem; this module builds that arbiter for the repo's
layered feeds.  Two coupled schedulers:

* :class:`FeedFabric` — a **global worker budget** the per-feed elastic
  controllers bid into.  Each feed keeps its own controller and its own
  pool mechanics (cancel tokens, ``buffer.kick()``, the order-preserving
  sequencer); the fabric only decides *whether a grow is funded*.  Every
  sample tick the controller submits a :class:`FeedSignals` bid; a grow
  request either takes a spare worker immediately or queues (priority
  first, then arrival order) while the fabric recalls a worker from an
  uncongested tenant holding more than its ``min_computing_workers``
  floor.  Recalls reuse the existing retire machinery — a shrink token
  plus a ``kick`` — so a recalled worker exits at a batch boundary and
  the released slot funds the queued request.  Floors are inviolable:
  the recall hook re-checks the live pool before accepting a token, so
  a fabric recall can never race the feed's own controller below the
  floor.

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
tie-breaks are total orders (priority, arrival sequence, tenant name),
and it allocates no randomness — so two runs of the same fleet produce
byte-identical lease ledgers, grants, and stored outputs.  Per-feed
stored output is byte-identical fabric-on vs fabric-off because the
fabric changes only *pool size over time*, and the sequencer already
guarantees order-preserving release at any pool size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import IngestionError
from ..runtime.faults import FaultPlan

#: governor grants are quantized so tiny hit-ratio jitter doesn't churn
#: ``configure`` calls (and grant-log noise) every rebalance
GRANT_GRANULARITY_BYTES = 4096

#: base utility weight for a tenant with zero observed hits — keeps a
#: cold cache funded long enough to earn its first reuse
COLD_TENANT_WEIGHT = 0.25

#: every tenant's relative claim on the governed cache budget: uniform,
#: so only priority and observed hit ratio move bytes between tenants
FAIR_SHARE = 1.0


@dataclass(frozen=True)
class FeedSignals:
    """One elastic-controller sample tick's congestion bid."""

    occupancy: float = 0.0  # intake-buffer holder occupancy [0, 1]
    backlog_batches: float = 0.0  # ready records / batch size
    producer_blocked: bool = False  # intake currently backpressured
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
    """One feed's lease account inside the fabric."""

    __slots__ = (
        "name",
        "floor",
        "cap",
        "priority",
        "grow",
        "recall",
        "held",
        "peak_held",
        "recalls_outstanding",
        "pending_seq",
        "signals",
        "active",
        "leases_acquired",
        "leases_returned",
        "recalls_received",
        "timeline",
    )

    def __init__(self, name, policy, grow, recall):
        self.name = name
        self.floor = policy.min_computing_workers
        self.cap = policy.max_computing_workers
        self.priority = policy.priority
        self.grow = grow  # () -> None: spawn one worker now (a grant)
        self.recall = recall  # () -> bool: issue a retire token if safe
        self.held = 0
        self.peak_held = 0
        self.recalls_outstanding = 0
        self.pending_seq: Optional[int] = None  # arrival seq of queued bid
        self.signals: Optional[FeedSignals] = None
        self.active = True
        self.leases_acquired = 0
        self.leases_returned = 0
        self.recalls_received = 0
        self.timeline: List[Tuple[float, int]] = []  # (sim_s, held)


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
    tenant".
    """

    def __init__(self, total_bytes: int):
        if total_bytes <= 0:
            raise ValueError("MemoryGovernor needs a positive byte budget")
        self.total_bytes = int(total_bytes)
        self._tenants: List[_CacheTenant] = []
        self.rebalances = 0
        #: grant ledger: (sim_seconds, feed, cache_kind, granted_bytes)
        self.grants: List[Tuple[float, str, str, int]] = []

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
        self.rebalances += 1
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
                self.grants.append((now, entry.feed, entry.kind, budget))

    # ----------------------------------------------------------- reporting

    def grants_for(self, feed: str) -> List[Tuple[float, str, int]]:
        """The feed's grant history: ``(sim_seconds, kind, bytes)``."""
        return [(t, kind, b) for t, f, kind, b in self.grants if f == feed]

    def summary(self) -> Dict[str, object]:
        return {
            "total_bytes": self.total_bytes,
            "rebalances": self.rebalances,
            "grants": len(self.grants),
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
    """The cluster-level worker-lease arbiter (plus optional governor).

    ``total_workers`` is the cluster's computing-worker budget; the sum
    of registered feeds' ``min_computing_workers`` floors must fit in
    it.  ``memory_bytes > 0`` additionally attaches a
    :class:`MemoryGovernor` arbitrating one cache budget across every
    governed feed (the governor, not the policy's byte count, sets the
    budget of each cache the feed's policy enables).

    A fabric arbitrates exactly one ``start_feeds`` run: its lease
    ledger, timelines, and governor grants are run artifacts, inspected
    after the run via :meth:`summary`/:meth:`tenant_report`.  Build a
    fresh fabric per run.
    """

    def __init__(self, total_workers: int, memory_bytes: int = 0):
        if total_workers < 1:
            raise ValueError("total_workers must be >= 1")
        self.total_workers = int(total_workers)
        self.governor = (
            MemoryGovernor(memory_bytes) if memory_bytes > 0 else None
        )
        self._tenants: Dict[str, _WorkerTenant] = {}
        #: queued borrow requests as (-priority, arrival_seq, tenant name)
        self._queue: List[Tuple[int, int, str]] = []
        self._seq = 0
        self._runtime = None
        self.used = False
        #: lease ledger: (sim_s, feed, event, feed_held, total_held) where
        #: event is floor|acquire|grant|recall|release|deregister
        self.lease_events: List[Tuple[float, str, str, int, int]] = []
        self.leases_granted = 0
        self.recalls_issued = 0
        self.peak_total_held = 0

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

    def register_feed(
        self,
        name: str,
        policy,
        grow: Optional[Callable[[], None]] = None,
        recall: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Enroll one feed's pool: its bounds, knobs, and pool hooks."""
        if name in self._tenants:
            raise IngestionError(f"feed {name!r} already registered")
        self._tenants[name] = _WorkerTenant(name, policy, grow, recall)

    def register_cache(self, name: str, cache, policy) -> None:
        """Enroll one of a feed's own caches with the governor."""
        if self.governor is None:
            raise IngestionError("this fabric has no memory governor")
        self.governor.register(
            name, cache.kind, cache, policy.priority, now=self._now(),
        )

    def note_initial(self, name: str, count: int) -> None:
        """Account a feed's floor workers spawned at launch."""
        tenant = self._tenants[name]
        tenant.held += count
        self._record(tenant, "floor")
        if self.total_held > self.total_workers:
            raise IngestionError(
                f"feed floors exceed the fabric worker budget "
                f"({self.total_held} > {self.total_workers})"
            )

    def deregister_feed(self, name: str) -> None:
        """The feed's run is over: drop its bid, free any held leases."""
        tenant = self._tenants.get(name)
        if tenant is None:
            return
        tenant.active = False
        tenant.pending_seq = None
        tenant.recalls_outstanding = 0
        # an aborted feed may exit with workers never individually
        # released; return them to the pool wholesale
        tenant.held = 0
        self._record(tenant, "deregister")
        if self.governor is not None:
            self.governor.deregister(name, now=self._now())
        self._grant_pending()

    # ------------------------------------------------------------- bidding

    def tick(self, name: str, signals: FeedSignals) -> None:
        """One controller sample tick: refresh this feed's standing bid."""
        tenant = self._tenants[name]
        tenant.signals = signals
        if tenant.pending_seq is not None and (
            not signals.congested or tenant.held >= tenant.cap
        ):
            # congestion cleared (or the cap closed) while queued
            tenant.pending_seq = None
            self._queue = [q for q in self._queue if q[2] != name]
        # Self-healing: a victim's own controller may cancel a pending
        # retire (eating the recall token).  When bids outnumber live
        # recalls and nothing is spare, issue another.
        if (
            self._queue
            and self.spare == 0
            and self._outstanding_recalls() < len(self._queue)
        ):
            self._issue_recall()

    def acquire(self, name: str) -> bool:
        """A congested feed's grow request: fund it now or queue the bid.

        Returns True when the grow is funded immediately (the caller
        spawns the worker); False when the bid is queued — the fabric
        calls the feed's ``grow`` hook itself once a worker frees up.
        """
        tenant = self._tenants[name]
        if tenant.held >= tenant.cap:
            return False
        if self.spare > 0:
            tenant.held += 1
            tenant.leases_acquired += 1
            self.leases_granted += 1
            self._record(tenant, "acquire")
            return True
        if tenant.pending_seq is None:
            tenant.pending_seq = self._seq
            self._queue.append((-tenant.priority, self._seq, name))
            self._seq += 1
        if self._outstanding_recalls() < len(self._queue):
            self._issue_recall(exclude=name)
        return False

    def release_worker(self, name: str) -> None:
        """A worker exited (EOF drain or recalled retire): free its slot."""
        tenant = self._tenants[name]
        if tenant.held <= 0:
            return
        tenant.held -= 1
        tenant.leases_returned += 1
        if tenant.recalls_outstanding > 0:
            tenant.recalls_outstanding -= 1
        self._record(tenant, "release")
        self._grant_pending()

    def note_shrink_cancelled(self, name: str) -> None:
        """The feed's controller cancelled a pending retire; if a fabric
        recall was riding that token, it is no longer in flight."""
        tenant = self._tenants.get(name)
        if tenant is not None and tenant.recalls_outstanding > 0:
            tenant.recalls_outstanding -= 1

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
        if self._runtime is None:
            return 0.0
        return self._runtime.clock.now - self._runtime.epoch

    def _record(self, tenant: _WorkerTenant, event: str) -> None:
        tenant.peak_held = max(tenant.peak_held, tenant.held)
        total = self.total_held
        self.peak_total_held = max(self.peak_total_held, total)
        now = self._now()
        tenant.timeline.append((now, tenant.held))
        self.lease_events.append((now, tenant.name, event, tenant.held, total))

    def _outstanding_recalls(self) -> int:
        return sum(t.recalls_outstanding for t in self._tenants.values())

    def _issue_recall(self, exclude: Optional[str] = None) -> bool:
        """Ask the best victim to retire one worker at its next batch
        boundary.  The victim's ``recall`` hook re-checks its live pool
        (running minus already-pending retires vs its floor) and refuses
        unsafe recalls, so floors hold even against concurrent shrink
        tokens from the victim's own controller.
        """
        candidates = [
            t
            for t in self._tenants.values()
            if t.active
            and t.name != exclude
            and t.recall is not None
            and t.pending_seq is None
            and t.held - t.recalls_outstanding > t.floor
            and (t.signals is None or not t.signals.congested)
        ]
        # prefer explicitly starved tenants, then lowest priority, then
        # most slack above floor; tenant name as the total-order tiebreak
        candidates.sort(
            key=lambda t: (
                0 if (t.signals is not None and t.signals.starved) else 1,
                t.priority,
                -(t.held - t.recalls_outstanding - t.floor),
                t.name,
            )
        )
        for tenant in candidates:
            if tenant.recall():
                tenant.recalls_outstanding += 1
                tenant.recalls_received += 1
                self.recalls_issued += 1
                self.lease_events.append(
                    (
                        self._now(),
                        tenant.name,
                        "recall",
                        tenant.held,
                        self.total_held,
                    )
                )
                return True
        return False

    def _grant_pending(self) -> None:
        """Fund queued bids from spare capacity, best bid first."""
        while self.spare > 0 and self._queue:
            self._queue.sort()  # (-priority, arrival seq, name)
            _neg_priority, seq, name = self._queue.pop(0)
            tenant = self._tenants.get(name)
            if (
                tenant is None
                or not tenant.active
                or tenant.pending_seq != seq
            ):
                continue  # stale bid (cancelled or re-queued)
            tenant.pending_seq = None
            if tenant.held >= tenant.cap:
                continue
            if tenant.signals is not None and not tenant.signals.congested:
                continue  # congestion cleared while queued
            tenant.held += 1
            tenant.leases_acquired += 1
            self.leases_granted += 1
            self._record(tenant, "grant")
            if tenant.grow is not None:
                tenant.grow()

    # ------------------------------------------------------------ reporting

    def tenant_report(self, name: str) -> Dict[str, object]:
        tenant = self._tenants[name]
        return {
            "floor": tenant.floor,
            "cap": tenant.cap,
            "priority": tenant.priority,
            "fair_share": FAIR_SHARE,
            "peak_held": tenant.peak_held,
            "borrowed_workers": max(0, tenant.peak_held - tenant.floor),
            "leases_acquired": tenant.leases_acquired,
            "leases_returned": tenant.leases_returned,
            "recalls_received": tenant.recalls_received,
            "lease_timeline": list(tenant.timeline),
        }

    def governor_grants_for(self, name: str) -> List[Tuple[float, str, int]]:
        if self.governor is None:
            return []
        return self.governor.grants_for(name)

    def summary(self) -> Dict[str, object]:
        return {
            "total_workers": self.total_workers,
            "peak_total_held": self.peak_total_held,
            "leases_granted": self.leases_granted,
            "recalls_issued": self.recalls_issued,
            "governor": (
                self.governor.summary() if self.governor is not None else None
            ),
            "tenants": {
                name: self.tenant_report(name)
                for name in sorted(self._tenants)
            },
        }
