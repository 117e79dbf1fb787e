"""Multi-tenant feed fabric: lease arbitration, memory governor, fleets."""

import json

import pytest

from repro.core import AsterixLite
from repro.errors import IngestionError
from repro.ingestion import (
    FeedFabric,
    FeedLaunch,
    FeedPolicy,
    FeedSignals,
    GeneratorAdapter,
    MemoryGovernor,
)
from repro.runtime import CrashAt, FaultPlan, StallAt
from repro.sqlpp.state_cache import StateCache

CONGESTED = FeedSignals(
    occupancy=1.0, backlog_batches=4, producer_blocked=True,
    congested=True, starved=False,
)
QUIET = FeedSignals(
    occupancy=0.0, backlog_batches=0, producer_blocked=False,
    congested=False, starved=True,
)


def elastic(floor=1, cap=4, priority=1, **overrides):
    return FeedPolicy.elastic(
        min_computing_workers=floor, max_computing_workers=cap,
        priority=priority, **overrides,
    )


class _Pool:
    """Stub feed pool: counts grants, always accepts recalls."""

    def __init__(self):
        self.grown = 0
        self.recalled = 0

    def grow(self):
        self.grown += 1

    def recall(self):
        self.recalled += 1
        return True


def enroll(fabric, name, policy, pool=None):
    pool = pool or _Pool()
    fabric.register_feed(name, policy, grow=pool.grow, recall=pool.recall)
    fabric.note_initial(name, policy.min_computing_workers)
    return pool


class TestFabricArbiter:
    def test_validate_rejects_oversubscribed_floors(self):
        fabric = FeedFabric(total_workers=3)
        policies = [("A", elastic(floor=2)), ("B", elastic(floor=2))]
        with pytest.raises(IngestionError):
            fabric.validate(policies)

    def test_note_initial_over_budget_raises(self):
        fabric = FeedFabric(total_workers=2)
        fabric.register_feed("A", elastic(floor=2))
        fabric.register_feed("B", elastic(floor=2))
        fabric.note_initial("A", 2)
        with pytest.raises(IngestionError):
            fabric.note_initial("B", 2)

    def test_single_use_per_run(self):
        fabric = FeedFabric(total_workers=2)
        fabric.bind(runtime=None)
        with pytest.raises(IngestionError):
            fabric.bind(runtime=None)

    def test_acquire_funds_from_spare_then_queues(self):
        fabric = FeedFabric(total_workers=3)
        enroll(fabric, "A", elastic(cap=3))
        enroll(fabric, "B", elastic(cap=3))
        fabric.tick("A", CONGESTED)
        assert fabric.acquire("A") is True  # spare worker funded directly
        assert fabric.spare == 0
        assert fabric.acquire("A") is False  # bid queued, nothing spare
        assert fabric.leases_granted == 1

    def test_acquire_refuses_beyond_cap(self):
        fabric = FeedFabric(total_workers=4)
        enroll(fabric, "A", elastic(cap=2))
        fabric.tick("A", CONGESTED)
        assert fabric.acquire("A") is True  # held 2 == cap
        assert fabric.acquire("A") is False
        assert fabric.total_held == 2  # cap bounds the grant, budget spare

    def test_release_funds_highest_priority_bid_first(self):
        fabric = FeedFabric(total_workers=2)
        pool_a = enroll(fabric, "A", elastic(priority=1))
        pool_b = enroll(fabric, "B", elastic(priority=2))
        fabric.tick("A", CONGESTED)
        fabric.tick("B", CONGESTED)
        assert fabric.acquire("A") is False  # queued first
        assert fabric.acquire("B") is False  # queued second, higher priority
        fabric.release_worker("A")  # A's worker drains at EOF
        assert pool_b.grown == 1  # priority outranks arrival order
        assert pool_a.grown == 0
        assert fabric.total_held == 2

    def test_congestion_cleared_bid_is_dropped(self):
        fabric = FeedFabric(total_workers=2)
        pool_a = enroll(fabric, "A", elastic())
        enroll(fabric, "B", elastic())
        fabric.tick("A", CONGESTED)
        assert fabric.acquire("A") is False
        fabric.tick("A", QUIET)  # backlog drained while queued
        fabric.release_worker("B")
        assert pool_a.grown == 0  # stale bid was not funded
        assert fabric.spare == 1

    def test_recall_targets_lowest_priority_uncongested_tenant(self):
        fabric = FeedFabric(total_workers=3)
        pool_a = enroll(fabric, "A", elastic(priority=1, cap=3))
        pool_b = enroll(fabric, "B", elastic(priority=2, cap=3))
        fabric.tick("A", CONGESTED)
        assert fabric.acquire("A") is True  # A borrows the spare worker
        fabric.tick("A", QUIET)  # ...then goes idle still holding it
        fabric.tick("B", CONGESTED)
        assert fabric.acquire("B") is False  # queued; recall goes out to A
        assert pool_a.recalled == 1
        assert fabric.recalls_issued == 1
        fabric.release_worker("A")  # A retires the recalled worker
        assert pool_b.grown == 1  # freed slot funds B's standing bid
        assert fabric.total_held == 3

    def test_recall_never_victimizes_a_floor_tenant(self):
        fabric = FeedFabric(total_workers=2)
        pool_a = enroll(fabric, "A", elastic())
        enroll(fabric, "B", elastic())
        fabric.tick("A", QUIET)  # A idle but at floor: not a candidate
        fabric.tick("B", CONGESTED)
        assert fabric.acquire("B") is False
        assert pool_a.recalled == 0
        assert fabric.recalls_issued == 0

    def test_deregister_returns_all_held_leases(self):
        fabric = FeedFabric(total_workers=3)
        enroll(fabric, "A", elastic(cap=3))
        pool_b = enroll(fabric, "B", elastic(cap=3))
        fabric.tick("A", CONGESTED)
        assert fabric.acquire("A") is True
        fabric.tick("B", CONGESTED)
        assert fabric.acquire("B") is False  # queued behind A's borrow
        fabric.deregister_feed("A")  # A's run ends wholesale
        assert pool_b.grown == 1  # freed capacity funds B immediately
        assert fabric.total_held == 2

    def test_ledger_never_exceeds_budget(self):
        fabric = FeedFabric(total_workers=3)
        enroll(fabric, "A", elastic(cap=3))
        enroll(fabric, "B", elastic(cap=3))
        fabric.tick("A", CONGESTED)
        fabric.acquire("A")
        fabric.acquire("A")
        fabric.release_worker("A")
        fabric.deregister_feed("A")
        fabric.deregister_feed("B")
        assert fabric.lease_events
        assert all(
            total <= fabric.total_workers
            for _t, _feed, _event, _held, total in fabric.lease_events
        )
        assert fabric.total_held == 0


class TestMemoryGovernor:
    @staticmethod
    def _window(cache, hits, misses, version=1):
        for i in range(hits):
            cache.put(("hot", i), version, {"v": i}, 1, nbytes=64)
            assert cache.get(("hot", i), version) is not None
        for i in range(misses):
            assert cache.get(("cold", i), version) is None

    def test_budgets_track_window_hit_ratio(self):
        governor = MemoryGovernor(total_bytes=1024 * 1024)
        hot, cold = StateCache(label="A.state"), StateCache(label="B.state")
        governor.register("A", hot.kind, hot, 1)
        governor.register("B", cold.kind, cold, 1)
        self._window(hot, hits=20, misses=0)
        self._window(cold, hits=0, misses=20)
        governor.rebalance(now=1.0)
        tenants = governor.summary()["tenants"]
        assert tenants["A/state"]["budget_bytes"] > tenants["B/state"]["budget_bytes"]

    def test_midrun_hit_ratio_shift_moves_bytes(self):
        governor = MemoryGovernor(total_bytes=1024 * 1024)
        a, b = StateCache(label="A.state"), StateCache(label="B.state")
        governor.register("A", a.kind, a, 1)
        governor.register("B", b.kind, b, 1)
        self._window(a, hits=20, misses=0)
        self._window(b, hits=0, misses=20)
        governor.rebalance(now=1.0)
        first = {
            key: t["budget_bytes"]
            for key, t in governor.summary()["tenants"].items()
        }
        assert first["A/state"] > first["B/state"]
        # the workload inverts: A goes cold, B goes hot; the EWMA folds
        # each window in at 0.5 weight, so two windows cross the budgets
        for window in (2.0, 3.0):
            self._window(a, hits=0, misses=20, version=int(window))
            self._window(b, hits=20, misses=0, version=int(window))
            governor.rebalance(now=window)
        second = {
            key: t["budget_bytes"]
            for key, t in governor.summary()["tenants"].items()
        }
        assert second["B/state"] > second["A/state"]
        assert governor.grants  # every budget move is a ledger entry

    def test_budgets_quantized_and_within_total(self):
        governor = MemoryGovernor(total_bytes=300_000)
        caches = [StateCache(label=f"F{i}.state") for i in range(3)]
        for i, cache in enumerate(caches):
            governor.register(f"F{i}", cache.kind, cache, 1)
        governor.rebalance(now=1.0)
        budgets = [
            t["budget_bytes"] for t in governor.summary()["tenants"].values()
        ]
        assert sum(budgets) <= governor.total_bytes
        # all but the remainder-absorbing top tenant land on grant boundaries
        assert sum(1 for b in budgets if b % 4096 != 0) <= 1

    def test_priority_weighs_cold_budgets(self):
        governor = MemoryGovernor(total_bytes=1024 * 1024)
        a, b = StateCache(label="A.state"), StateCache(label="B.state")
        governor.register("A", a.kind, a, 2)
        governor.register("B", b.kind, b, 1)
        tenants = governor.summary()["tenants"]
        assert tenants["A/state"]["budget_bytes"] > tenants["B/state"]["budget_bytes"]

    def test_shrink_applies_eviction_pressure(self):
        governor = MemoryGovernor(total_bytes=64 * 4096)
        a, b = StateCache(label="A.state"), StateCache(label="B.state")
        governor.register("A", a.kind, a, 1)
        # A fills its whole solo budget...
        for i in range(100):
            a.put(("k", i), 1, {"v": i}, 1, nbytes=2048)
        resident_before = a.current_bytes
        # ...then a hot second tenant arrives and the split shrinks A:
        # the lowest-value tenant absorbs the eviction pressure at once
        governor.register("B", b.kind, b, 1)
        self._window(b, hits=20, misses=0)
        governor.rebalance(now=1.0)
        assert a.current_bytes <= resident_before
        assert a.current_bytes <= governor.summary()["tenants"]["A/state"][
            "budget_bytes"
        ]


# --------------------------------------------------------------- fleet runs


def build_fleet(names, words=40):
    system = AsterixLite(num_nodes=2)
    system.execute(
        """
        CREATE TYPE TweetType AS OPEN { id: int64, text: string };
        CREATE TYPE WordType AS OPEN { wid: int64 };
        CREATE DATASET SensitiveWords(WordType) PRIMARY KEY wid;
        """
    )
    system.insert(
        "SensitiveWords",
        [{"wid": i, "country": "US", "word": f"w{i}"} for i in range(words)],
    )
    system.execute(
        """
        CREATE FUNCTION heavyCheck(tweet) {
            LET flag = CASE
                EXISTS(SELECT w FROM SensitiveWords w
                       WHERE tweet.country = w.country
                         AND contains(tweet.text, w.word))
                WHEN true THEN "Red" ELSE "Green" END
            SELECT tweet.*, flag
        };
        """
    )
    for name in names:
        system.execute(
            f"""
            CREATE DATASET Enriched{name}(TweetType) PRIMARY KEY id;
            CREATE FEED {name} WITH {{ "type-name": "TweetType" }};
            CONNECT FEED {name} TO DATASET Enriched{name}
                APPLY FUNCTION heavyCheck;
            """
        )
    return system


def raws(records, tag):
    return [
        json.dumps({"id": i, "text": f"tweet {i} of {tag}", "country": "US"})
        for i in range(records)
    ]


SKEW = {"Heavy": 360, "LightA": 60, "LightB": 60}


def run_fleet(fabric=None, policies=None, fault_plans=None, counts=None):
    counts = counts or SKEW
    system = build_fleet(list(counts))
    policies = policies or {
        name: elastic(cap=4, priority=2 if count == max(counts.values()) else 1)
        for name, count in counts.items()
    }
    launches = [
        FeedLaunch(
            feed=name,
            adapter=GeneratorAdapter(raws(count, name)),
            batch_size=30,
            policy=policies[name],
            fault_plan=(fault_plans or {}).get(name),
        )
        for name, count in counts.items()
    ]
    reports = system.start_feeds(launches, fabric=fabric)
    stored = {
        name: sorted(
            (r["id"], r["flag"])
            for r in system.catalog[f"Enriched{name}"].scan()
        )
        for name in counts
    }
    return reports, stored


class TestFleetParity:
    def test_outputs_byte_identical_fabric_on_off(self):
        fabric = FeedFabric(total_workers=4)
        with_fabric, stored_on = run_fleet(fabric=fabric)
        _, stored_off = run_fleet(fabric=None)
        assert stored_on == stored_off
        assert all(
            len(stored_on[name]) == count for name, count in SKEW.items()
        )
        # the skewed tenant actually borrowed idle tenants' workers
        assert with_fabric["Heavy"].borrowed_workers >= 1
        assert with_fabric["Heavy"].lease_timeline
        assert with_fabric["LightA"].borrowed_workers == 0

    def test_fleet_runs_are_deterministic(self):
        reports_1, stored_1 = run_fleet(fabric=FeedFabric(total_workers=4))
        reports_2, stored_2 = run_fleet(fabric=FeedFabric(total_workers=4))
        assert stored_1 == stored_2
        assert {
            name: report.runtime.makespan_seconds
            for name, report in reports_1.items()
        } == {
            name: report.runtime.makespan_seconds
            for name, report in reports_2.items()
        }

    def test_lease_ledger_invariants(self):
        fabric = FeedFabric(total_workers=4)
        run_fleet(fabric=fabric)
        assert fabric.lease_events
        for _t, _feed, event, held, total in fabric.lease_events:
            assert 0 <= total <= fabric.total_workers
            if event == "recall":
                # a recall victim always keeps its floor (floor=1 here)
                assert held > 1
        assert fabric.peak_total_held <= fabric.total_workers
        assert fabric.total_held == 0  # every lease returned at end of run
        for name in SKEW:
            tenant = fabric.tenant_report(f"feed-{name}")
            assert tenant["leases_returned"] == (
                tenant["floor"] + tenant["leases_acquired"]
            )

    def test_floors_validated_against_budget(self):
        fabric = FeedFabric(total_workers=2)
        with pytest.raises(IngestionError):
            run_fleet(fabric=fabric)  # three floor-1 feeds, budget of two

    def test_percentiles_and_cache_stats_namespaced_per_feed(self):
        fabric = FeedFabric(total_workers=4, memory_bytes=256 * 1024)
        policies = {
            name: elastic(
                cap=4,
                priority=2 if count == max(SKEW.values()) else 1,
                enrichment_memo_bytes=32 * 1024,
            )
            for name, count in SKEW.items()
        }
        system = build_fleet(list(SKEW))
        launches = [
            FeedLaunch(
                feed=name,
                adapter=GeneratorAdapter(raws(count, name)),
                batch_size=30,
                policy=policies[name],
            )
            for name, count in SKEW.items()
        ]
        reports = system.start_feeds(launches, fabric=fabric)
        rows = {name: system.plan_cache_stats(feed=name) for name in SKEW}
        assert all(rows[name]["feed"] == name for name in SKEW)
        # disjoint per-tenant counters: each feed's memo row reflects its
        # own records, not an interleaved singleton
        assert rows["Heavy"]["memo_misses"] == SKEW["Heavy"]
        assert rows["LightA"]["memo_misses"] == SKEW["LightA"]
        # columnar counters too: each feed's vectorized tally covers its
        # own records only (the plan cache itself is registry-shared)
        assert all(
            rows[name]["vectorized_records"] == SKEW[name] for name in SKEW
        )
        for name, report in reports.items():
            assert report.latency_p50 <= report.latency_p95 <= report.latency_p99
            assert report.latency_p99 > 0
        # the governor split one budget across the enrolled tenants (the
        # tenants deregister at cleanup; the grant ledger is the artifact)
        granted_feeds = {feed for _t, feed, _k, _b in fabric.governor.grants}
        assert granted_feeds == {f"feed-{name}" for name in SKEW}
        assert reports["Heavy"].governor_grants


class TestFabricCrashRestart:
    def test_borrowing_feed_crash_restart_returns_leases(self):
        plan = FaultPlan(crashes=(CrashAt(at=0.05, target="feed-Heavy.computing"),))
        fabric = FeedFabric(total_workers=4)
        reports, stored = run_fleet(
            fabric=fabric, fault_plans={"Heavy": plan}
        )
        _, stored_clean = run_fleet(fabric=FeedFabric(total_workers=4))
        # the crash is attributed to the heavy feed alone, and replay
        # keeps its output byte-identical to the undisturbed run
        assert reports["Heavy"].faults.crashes >= 1
        assert reports["LightA"].faults.crashes == 0
        assert stored == stored_clean
        # leases survive the restart and drain back at end of run
        assert fabric.total_held == 0
        tenant = fabric.tenant_report("feed-Heavy")
        assert tenant["leases_returned"] == (
            tenant["floor"] + tenant["leases_acquired"]
        )
        assert all(
            total <= fabric.total_workers
            for _t, _f, _e, _h, total in fabric.lease_events
        )


class TestFleetStallAttribution:
    """Injected stall time is summed over the feed's own processes, so a
    fleet's tenants report disjoint shares of the shared runtime's total."""

    STALL = StallAt(at=0.0, target="feed-A.storage", duration=0.3)

    def launch(self, name):
        return FeedLaunch(
            feed=name,
            adapter=GeneratorAdapter(raws(60, name)),
            batch_size=30,
            fault_plan=FaultPlan(stalls=(self.STALL,)) if name == "A" else None,
        )

    def capture_runtimes(self, system):
        made = []
        new_runtime = system.cluster.new_runtime

        def capturing(name):
            made.append(new_runtime(name))
            return made[-1]

        system.cluster.new_runtime = capturing
        return made

    def test_stall_lands_on_the_stalled_tenant_only(self):
        system = build_fleet(["A", "B"])
        runtimes = self.capture_runtimes(system)
        reports = system.start_feeds([self.launch("A"), self.launch("B")])
        assert reports["A"].faults.stall_seconds == 0.3
        assert reports["B"].faults.stall_seconds == 0.0
        (fleet,) = runtimes
        assert fleet.injected_stall_seconds == sum(
            report.faults.stall_seconds for report in reports.values()
        )

    def test_solo_figure_is_the_runtime_total(self):
        system = build_fleet(["A"])
        runtimes = self.capture_runtimes(system)
        launch = self.launch("A")
        report = system.start_feed(
            "A",
            adapter=launch.adapter,
            batch_size=launch.batch_size,
            fault_plan=launch.fault_plan,
        )
        (solo,) = runtimes
        assert report.faults.stall_seconds == solo.injected_stall_seconds == 0.3
