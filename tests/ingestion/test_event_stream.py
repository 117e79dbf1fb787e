"""Event streams: a run's and a fleet's facts, in the order they happened.

Two identical runs give equal streams, and the lease events of a fleet's
stream conserve workers: each tenant's held count replays from them, the
fleet never holds more than its budget, and every leased worker comes back.
A run's recovery and external counters are recounts of its stream, and
every event is on the shared clock.
"""

from dataclasses import replace

import pytest

from repro.errors import FeedFailedError
from repro.ingestion import (
    FeedFabric,
    FeedPolicy,
    FileAdapter,
    GeneratorAdapter,
)
from repro.ingestion.fabric import LEASE_STEPS
from repro.runtime import (
    AdapterFailAt,
    CrashAt,
    EnricherOutage,
    ExternalMetrics,
    FaultMetrics,
    FaultPlan,
)
from repro.storage import CheckpointStore

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
    assert {"spawn", "batch", "retire", "scale", "crash", "restart", "replay"} <= {
        e.kind for e in report.runtime.events
    }
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
    assert {"call", "fail_fast"} <= {e.kind for e in events}
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


def interrupted_then_resumed(tmp_path):
    """An elastic external-enrichment feed whose first run a worker crash
    with no restart budget cuts short after some checkpoints; the resumed
    run takes a worker crash mid-batch, an adapter death and an outage of
    its enricher.  Returns the resumed run's report and the checkpoint
    commits the store saw during it."""
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "tweets.ndjson"
    path.write_text("\n".join(test_external.raws(400)) + "\n")
    store = CheckpointStore(str(tmp_path / "ckpt"))
    policy = FeedPolicy.elastic(
        external_breaker_failures=2,
        external_breaker_reset_seconds=0.01,
        external_max_attempts=2,
    )
    system, _, _ = test_external.make_system(policy=policy)
    with pytest.raises(FeedFailedError):
        system.start_feed(
            "TweetFeed",
            FileAdapter(str(path)),
            batch_size=25,
            policy=replace(policy, max_restarts=0),
            checkpoint=store,
            fault_plan=FaultPlan(crashes=(CrashAt(at=0.1, target="computing"),)),
        )
    commits = store.commits
    assert commits > 0
    report = system.resume_run(
        "TweetFeed",
        FileAdapter(str(path)),
        checkpoint=store,
        batch_size=25,
        fault_plan=FaultPlan(
            crashes=(CrashAt(at=0.02, target="computing"),),
            adapter_failures=(AdapterFailAt(after_records=40),),
            enricher_faults=[EnricherOutage("geo", at=0.0, duration=0.03)],
        ),
    )
    assert report.resumed_from_checkpoint
    return report, store.commits - commits


def recount_faults(report):
    """The stream-view fields of the run's fault counters, recounted."""
    events = report.runtime.events
    kinds = [e.kind for e in events]
    backoff = dict.fromkeys(report.runtime.processes, 0.0)  # spawn order
    for event in events:
        if event.kind == "restart":
            backoff[event.subject] += event.detail["backoff"]
    return {
        "restarts": kinds.count("restart"),
        "backoff_seconds": sum(backoff.values(), 0.0),
        "adapter_crashes": kinds.count("adapter_death"),
        "adapter_reopens": kinds.count("adapter_reopen"),
        "idle_timeouts": kinds.count("idle_timeout"),
        "records_replayed": sum(
            e.detail["records"] for e in events if e.kind == "replay"
        ),
        "circuit_breaker_trips": sum(
            e.kind == "breaker" and e.subject.endswith(".soft_errors")
            for e in events
        ),
    }


def recount_external(report):
    """The stream-view fields of the run's external counters, recounted
    from the events whose subject is its enricher."""
    mine = [e for e in report.runtime.events if e.subject == "geo"]
    calls = [e.detail for e in mine if e.kind == "call"]
    retried = [call for call in calls if call["backoff"] is not None]
    states = [e.detail["state"] for e in mine if e.kind == "breaker"]
    outcomes = [call["outcome"] for call in calls]
    return {
        "calls": len(calls),
        "keys_requested": sum(call["keys"] for call in calls),
        "retries": len(retried),
        "errors": outcomes.count("error"),
        "timeouts": outcomes.count("timeout"),
        "rate_limited": outcomes.count("rate_limited"),
        "fail_fast": sum(e.kind == "fail_fast" for e in mine),
        "breaker_opens": states.count("open"),
        "breaker_half_opens": states.count("half_open"),
        "breaker_closes": states.count("closed"),
        "call_seconds": sum((call["latency"] for call in calls), 0.0),
        "backoff_seconds": sum((call["backoff"] for call in retried), 0.0),
    }


#: counters the kernel, the intake buffer, the storage channel, the
#: soft-error handler and the per-record outcomes keep: no stream view
NOT_STREAM_VIEWS = {
    "crashes", "stall_seconds", "channel_send_failures", "disconnect_waits",
    "throttle_seconds", "records_skipped", "records_dead_lettered",
    "records_discarded", "frames_dropped", "records_enriched",
    "records_pending",
}


def test_recovery_and_external_counters_are_recounts_of_the_stream(tmp_path):
    report, commits = interrupted_then_resumed(tmp_path)
    faults, events = report.faults, report.runtime.events
    kinds = [e.kind for e in events]
    assert faults.crashes >= 1 and faults.adapter_crashes == 1
    assert faults.records_replayed > 0 and faults.backoff_seconds > 0
    assert report.external.breaker_opens >= 1 and report.external.retries > 0
    # the kernel counts injected crashes; an adapter death is a crash the
    # lane raises itself: the supervisor sees both, once each
    assert kinds.count("crash") == faults.crashes + faults.adapter_crashes
    assert kinds.count("restart") <= kinds.count("crash")
    assert kinds.count("give_up") == 0
    # every view field is covered by a recount, and equals it exactly
    recounted = recount_faults(report)
    fault_fields = set(FaultMetrics().as_dict())
    assert set(recounted) == fault_fields - NOT_STREAM_VIEWS
    assert {k: faults.as_dict()[k] for k in recounted} == recounted
    external = recount_external(report)
    external_fields = set(ExternalMetrics().as_dict())
    assert set(external) == external_fields - NOT_STREAM_VIEWS
    assert {k: report.external.as_dict()[k] for k in external} == external
    # each durable commit the store saw is one checkpoint event
    assert report.checkpoint_commits == kinds.count("checkpoint") == commits


def test_identical_resumed_runs_give_identical_streams(tmp_path):
    first, _ = interrupted_then_resumed(tmp_path / "a")
    second, _ = interrupted_then_resumed(tmp_path / "b")
    assert first.runtime.events == second.runtime.events
    assert {
        "crash", "restart", "adapter_death", "adapter_reopen", "replay",
        "checkpoint", "call", "breaker", "scale",
    } <= {e.kind for e in first.runtime.events}


def test_every_event_is_on_the_shared_clock():
    # the second run of a feed on one system starts well after the
    # shared clock's zero: its breaker and call events must fall inside
    # its own batches, not at the run-relative times of the fault windows
    policy = FeedPolicy.spill(
        external_breaker_failures=2,
        external_breaker_reset_seconds=0.01,
        external_max_attempts=1,
    )
    system, _, _ = test_external.make_system(policy=policy)
    for _ in range(2):
        report = system.start_feed(
            "TweetFeed",
            GeneratorAdapter(test_external.raws(400)),
            batch_size=25,
            fault_plan=FaultPlan(
                enricher_faults=[EnricherOutage("geo", at=0.0, duration=0.02)]
            ),
        )
    events = report.runtime.events
    batches = [e for e in events if e.kind == "batch"]
    start = min(e.detail["started"] for e in batches)
    end = max(e.at for e in batches)
    assert start > 0.1
    external = [e for e in events if e.kind in ("breaker", "call")]
    assert {"open", "closed"} <= {
        e.detail["state"] for e in external if e.kind == "breaker"
    }
    assert all(start <= e.at <= end + 1e-9 for e in external)
