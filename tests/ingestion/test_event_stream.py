"""Event streams: a run's and a fleet's facts, in the order they happened.

Two identical runs give equal streams, and the lease events of a fleet's
stream conserve workers: each tenant's held count replays from them, the
fleet never holds more than its budget, and every leased worker comes back.
"""

import pytest

from repro.errors import FeedFailedError
from repro.ingestion import FeedFabric, FeedPolicy, GeneratorAdapter
from repro.ingestion.fabric import LEASE_STEPS
from repro.runtime import CrashAt, EnricherOutage, FaultPlan

from . import test_elastic, test_external
from .test_fabric import SKEW, elastic, run_fleet


def fleet_policies(**overrides):
    return {
        name: elastic(
            cap=4, priority=2 if count == max(SKEW.values()) else 1, **overrides
        )
        for name, count in SKEW.items()
    }


def solo_elastic_with_crash():
    plan = FaultPlan(crashes=(CrashAt(at=0.05, target="computing"),))
    report, _ = test_elastic.run_feed(
        FeedPolicy.elastic(), records=240, fault_plan=plan
    )
    assert report.faults.crashes >= 1
    assert {"spawn", "batch", "retire"} <= {e.kind for e in report.runtime.events}
    return report.runtime.events


def governed_fleet():
    fabric = FeedFabric(total_workers=4, memory_bytes=256 * 1024)
    reports, _ = run_fleet(
        fabric=fabric, policies=fleet_policies(enrichment_memo_bytes=32 * 1024)
    )
    assert {"floor", "grant", "governor"} <= {e.kind for e in fabric.events}
    return fabric.events, {name: r.runtime.events for name, r in reports.items()}


def external_with_outage():
    policy = FeedPolicy.spill(
        external_breaker_failures=2,
        external_breaker_reset_seconds=0.01,
        external_max_attempts=1,
    )
    system, _, _ = test_external.make_system(policy=policy)
    report = system.start_feed(
        "TweetFeed",
        GeneratorAdapter(test_external.raws(400)),
        batch_size=25,
        fault_plan=FaultPlan(
            enricher_faults=[EnricherOutage("geo", at=0.0, duration=0.02)]
        ),
    )
    events = report.runtime.events
    states = [e.detail["state"] for e in events if e.kind == "breaker"]
    assert {"open", "half_open", "closed"} <= set(states)
    assert states.count("open") == report.external.breaker_opens
    return events


@pytest.mark.parametrize(
    "scenario", [solo_elastic_with_crash, governed_fleet, external_with_outage]
)
def test_identical_runs_give_identical_streams(scenario):
    assert scenario() == scenario()


def replay_leases(fabric, floors):
    """Replay each tenant's held count from the lease events; returns the
    workers each tenant leased and returned."""
    held = {name: 0 for name in floors}
    leased = dict.fromkeys(floors, 0)
    returned = dict.fromkeys(floors, 0)
    for event in fabric.events:
        if event.kind not in LEASE_STEPS:
            continue
        name, before = event.subject, held[event.subject]
        held[name] = {
            "floor": floors[name],
            "acquire": before + 1,
            "grant": before + 1,
            "release": before - 1,
            "deregister": 0,
        }[event.kind]
        leased[name] += max(0, held[name] - before)
        returned[name] += max(0, before - held[name])
        assert event.detail["held"] == held[name] >= 0
        assert event.detail["total"] == sum(held.values()) <= fabric.total_workers
    return leased, returned


@pytest.mark.parametrize("aborts", [False, True])
def test_fleet_stream_conserves_workers(aborts):
    fabric = FeedFabric(total_workers=4)
    if aborts:
        # the heavy feed crashes with no restart budget while it holds
        # borrowed workers: the whole fleet's runs abort and deregister
        with pytest.raises(FeedFailedError):
            run_fleet(
                fabric=fabric,
                policies=fleet_policies(max_restarts=0),
                fault_plans={
                    "Heavy": FaultPlan(
                        crashes=(CrashAt(at=0.3, target="feed-Heavy.computing"),)
                    )
                },
            )
    else:
        run_fleet(fabric=fabric)
    floors = {f"feed-{name}": 1 for name in SKEW}
    leased, returned = replay_leases(fabric, floors)
    assert leased == returned
    for name in floors:
        tenant = fabric.tenant_report(name)
        assert leased[name] == tenant["floor"] + tenant["leases_acquired"]
        if not aborts:
            assert returned[name] == tenant["leases_returned"]
    # the aborted heavy tenant's borrowed workers came back wholesale
    heavy = fabric.tenant_report("feed-Heavy")
    assert (heavy["leases_returned"] < leased["feed-Heavy"]) == aborts
