"""Deterministic fault injection: crashes, stalls, channel failures."""

import json

import pytest

from repro.errors import InjectedCrash
from repro.hyracks import Frame, PassivePartitionHolder
from repro.runtime import (
    BLOCKED,
    Advance,
    AdapterFailAt,
    Channel,
    ChannelSendFailure,
    CrashAt,
    FaultPlan,
    HolderDisconnect,
    IntakeBuffer,
    Runtime,
    StallAt,
    Wait,
)


def crashes(runtime):
    """The crashes the runtime's processes received."""
    return sum(process.crashes_received for process in runtime.processes)


def stalled(runtime):
    """The injected stall seconds summed over the runtime's processes."""
    return sum(process.stall_seconds for process in runtime.processes)


class TestFaultPlan:
    def test_target_matches_layer_name_or_suffix(self):
        plan = FaultPlan(crashes=(CrashAt(at=1.0, target="computing"),))
        assert plan.crashes_for("feed-F.computing", "computing")
        assert plan.crashes_for("computing", "other")  # exact process name
        assert plan.crashes_for("feed-F.computing", "other")  # suffix
        assert not plan.crashes_for("feed-F.intake", "intake")

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            CrashAt(at=-1.0, target="x")
        with pytest.raises(ValueError):
            StallAt(at=0.0, target="x", duration=-1.0)

    def test_empty_plan(self):
        assert FaultPlan().empty
        assert not FaultPlan(crashes=(CrashAt(at=0.0, target="x"),)).empty

    def test_generated_plan_is_seed_determined(self):
        a = FaultPlan.generated(seed=7, horizon_seconds=2.0, num_stalls=2)
        b = FaultPlan.generated(seed=7, horizon_seconds=2.0, num_stalls=2)
        c = FaultPlan.generated(seed=8, horizon_seconds=2.0, num_stalls=2)
        assert a.crashes == b.crashes and a.stalls == b.stalls
        assert a.crashes != c.crashes or a.stalls != c.stalls

    def test_disconnect_window_is_half_open(self):
        plan = FaultPlan(
            disconnects=(
                HolderDisconnect(
                    holder_id="intake-F", partition=0, at=1.0, duration=2.0
                ),
            )
        )
        assert plan.holder_disconnected_until("intake-F", 0, 0.5) is None
        assert plan.holder_disconnected_until("intake-F", 0, 1.0) == 3.0
        assert plan.holder_disconnected_until("intake-F", 0, 2.9) == 3.0
        assert plan.holder_disconnected_until("intake-F", 0, 3.0) is None
        assert plan.holder_disconnected_until("intake-F", 1, 1.5) is None


class TestInjectedCrash:
    def test_crash_delivered_at_scheduled_sim_time(self):
        plan = FaultPlan(crashes=(CrashAt(at=1.5, target="worker"),))
        runtime = Runtime(fault_plan=plan)
        seen = []

        def worker():
            try:
                while True:
                    yield Advance(1.0)
            except InjectedCrash as crash:
                seen.append((runtime.clock.now, crash.fault))

        runtime.spawn("worker", worker())
        runtime.run()
        assert seen == [(1.5, plan.crashes[0])]
        assert crashes(runtime) == 1

    def test_uncaught_crash_propagates_to_the_run(self):
        # Without a supervisor (or an in-body handler) an injected crash is
        # fatal, exactly like any other process exception.
        plan = FaultPlan(crashes=(CrashAt(at=0.5, target="worker"),))
        runtime = Runtime(fault_plan=plan)

        def worker():
            while True:
                yield Advance(1.0)

        runtime.spawn("worker", worker())
        with pytest.raises(InjectedCrash):
            runtime.run()

    def test_crash_cancels_pending_resume(self):
        # The worker is mid-Advance when the crash fires; its stale resume
        # entry must not re-enter the generator after the crash unwinds it.
        plan = FaultPlan(crashes=(CrashAt(at=0.5, target="worker"),))
        runtime = Runtime(fault_plan=plan)
        steps = []

        def worker():
            steps.append("start")
            try:
                yield Advance(2.0)
            except InjectedCrash:
                return
            steps.append("resumed")  # must never happen

        runtime.spawn("worker", worker())
        runtime.run()
        assert steps == ["start"]

    def test_crash_cancels_pending_signal_wait(self):
        plan = FaultPlan(crashes=(CrashAt(at=1.0, target="waiter"),))
        runtime = Runtime(fault_plan=plan)
        ready = runtime.signal("ready")
        resumed = []

        def waiter():
            try:
                yield Wait(ready)
            except InjectedCrash:
                return
            resumed.append(runtime.clock.now)  # must never happen

        def notifier():
            yield Advance(2.0)
            ready.notify_all()

        runtime.spawn("waiter", waiter())
        runtime.spawn("notifier", notifier())
        runtime.run()
        assert resumed == []

    def test_late_spawned_process_skips_past_crashes(self):
        # an elastic worker spawned after a scheduled crash time must not
        # receive an interrupt dated before it existed
        plan = FaultPlan(crashes=(CrashAt(at=0.5, target="worker"),))
        runtime = Runtime(fault_plan=plan)
        crashed = []

        def early():
            try:
                yield Advance(2.0)
            except InjectedCrash:
                crashed.append("early")

        def late():
            try:
                yield Advance(1.0)
            except InjectedCrash:
                crashed.append("late")

        def spawner():
            yield Advance(1.0)  # well past the crash schedule
            runtime.spawn("late.worker", late())

        runtime.spawn("early.worker", early())
        runtime.spawn("spawner", spawner())
        runtime.run()
        assert crashed == ["early"]
        assert crashes(runtime) == 1

    def test_crash_scheduled_after_process_ends_is_ignored(self):
        plan = FaultPlan(crashes=(CrashAt(at=5.0, target="worker"),))
        runtime = Runtime(fault_plan=plan)

        def worker():
            yield Advance(1.0)

        runtime.spawn("worker", worker())
        # the stale interrupt entry is discarded without advancing the clock
        assert runtime.run() == pytest.approx(1.0)
        assert crashes(runtime) == 0


class TestInjectedStall:
    def test_stall_delays_resume_and_accounts_blocked(self):
        plan = FaultPlan(stalls=(StallAt(at=1.0, target="worker", duration=2.0),))
        runtime = Runtime(fault_plan=plan)
        resumes = []

        def worker():
            yield Advance(1.0)
            resumes.append(runtime.clock.now)
            yield Advance(1.0)

        process = runtime.spawn("worker", worker())
        assert runtime.run() == pytest.approx(4.0)
        assert resumes == [3.0]  # resume at t=1.0 delayed by the 2.0s stall
        assert process.totals[BLOCKED] == pytest.approx(2.0)
        assert stalled(runtime) == pytest.approx(2.0)

    def test_stall_fires_once(self):
        plan = FaultPlan(stalls=(StallAt(at=0.0, target="worker", duration=1.0),))
        runtime = Runtime(fault_plan=plan)

        def worker():
            for _ in range(3):
                yield Advance(1.0)

        runtime.spawn("worker", worker())
        assert runtime.run() == pytest.approx(4.0)  # 3 busy + 1 stall


class TestChannelSendFailure:
    def test_failed_put_retries_and_succeeds(self):
        plan = FaultPlan(
            channel_failures=(
                ChannelSendFailure(channel="work", put_index=1, retry_seconds=0.5),
            )
        )
        runtime = Runtime(fault_plan=plan)
        channel = Channel(runtime, capacity=4, name="work")
        got = []

        def producer():
            for i in range(3):
                yield from channel.put(i)
            channel.end()

        def consumer():
            while True:
                item = yield from channel.get()
                if item is None:
                    break
                got.append(item)

        producer_proc = runtime.spawn("p", producer())
        runtime.spawn("c", consumer())
        runtime.run()
        assert got == [0, 1, 2]  # at-least-once: nothing lost
        assert channel.send_failures == 1
        assert producer_proc.totals[BLOCKED] == pytest.approx(0.5)

    def test_unrelated_channel_unaffected(self):
        plan = FaultPlan(
            channel_failures=(ChannelSendFailure(channel="other", put_index=0),)
        )
        runtime = Runtime(fault_plan=plan)
        channel = Channel(runtime, capacity=4, name="work")

        def producer():
            yield from channel.put("a")
            channel.end()

        runtime.spawn("p", producer())
        runtime.run()
        assert channel.send_failures == 0


class TestHolderDisconnect:
    def test_producer_waits_out_disconnect(self):
        plan = FaultPlan(
            disconnects=(
                HolderDisconnect(
                    holder_id="intake-test", partition=0, at=0.0, duration=1.5
                ),
            )
        )
        runtime = Runtime(fault_plan=plan)
        holders = [PassivePartitionHolder("intake-test", p, 8) for p in range(2)]
        buffer = IntakeBuffer(runtime, holders)
        deposits = []

        def producer():
            yield from buffer.put(0, Frame([{"id": 0}]))
            deposits.append(runtime.clock.now)
            buffer.end()

        def consumer():
            while True:
                batch = yield from buffer.collect(batch_size=4)
                if batch is None:
                    break

        producer_proc = runtime.spawn("p", producer())
        runtime.spawn("c", consumer())
        runtime.run()
        assert deposits == [1.5]  # deposit waited for the reconnect
        assert producer_proc.totals[BLOCKED] == pytest.approx(1.5)
        assert holders[0].disconnects == 1
        assert holders[0].disconnected_seconds == pytest.approx(1.5)
        assert holders[1].disconnects == 0


class TestAdapterFailure:
    def test_negative_cursor_rejected(self):
        with pytest.raises(ValueError):
            AdapterFailAt(after_records=-1)

    def test_plan_carries_adapter_failures(self):
        fault = AdapterFailAt(after_records=10)
        plan = FaultPlan(adapter_failures=(fault,))
        assert not plan.empty
        assert plan.adapter_failures_indexed() == [(0, fault)]
        assert FaultPlan().adapter_failures_indexed() == []

    def _run_feed(self, adapter, plan, records):
        from repro.core import AsterixLite
        from repro.ingestion import FeedPolicy

        system = AsterixLite(num_nodes=2)
        system.execute(
            """
            CREATE TYPE TweetType AS OPEN { id: int64 };
            CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
            """
        )
        system.create_feed("TweetFeed", {"type-name": "TweetType"})
        system.connect_feed("TweetFeed", "Tweets", policy=FeedPolicy.spill())
        report = system.start_feed(
            "TweetFeed", adapter, batch_size=25, fault_plan=plan
        )
        stored = sorted(r["id"] for r in system.catalog["Tweets"].scan())
        return report, stored

    def test_file_adapter_killed_mid_fetch_resumes_with_no_loss(self, tmp_path):
        from repro.ingestion import FileAdapter

        path = tmp_path / "tweets.json"
        path.write_text(
            "".join(json.dumps({"id": i}) + "\n" for i in range(200))
        )
        plan = FaultPlan(adapter_failures=(AdapterFailAt(after_records=70),))
        report, stored = self._run_feed(FileAdapter(str(path)), plan, 200)
        assert report.faults.adapter_crashes == 1
        assert report.faults.adapter_reopens == 1
        assert report.faults.restarts == 1  # the intake actor came back
        # the re-opened source continued at the cursor: no loss, no dupes
        assert stored == list(range(200))
        assert report.records_ingested == 200

    def test_generator_adapter_resumes_from_live_iterator(self):
        from repro.ingestion import GeneratorAdapter

        plan = FaultPlan(adapter_failures=(AdapterFailAt(after_records=30),))
        adapter = GeneratorAdapter(
            json.dumps({"id": i}) for i in range(100)
        )
        report, stored = self._run_feed(adapter, plan, 100)
        assert report.faults.adapter_crashes == 1
        assert report.faults.adapter_reopens == 1
        assert stored == list(range(100))

    def test_each_adapter_failure_fires_once(self, tmp_path):
        from repro.ingestion import FileAdapter

        path = tmp_path / "tweets.json"
        path.write_text(
            "".join(json.dumps({"id": i}) + "\n" for i in range(150))
        )
        plan = FaultPlan(
            adapter_failures=(
                AdapterFailAt(after_records=40),
                AdapterFailAt(after_records=90),
            )
        )
        report, stored = self._run_feed(FileAdapter(str(path)), plan, 150)
        assert report.faults.adapter_crashes == 2
        assert report.faults.adapter_reopens == 2
        assert stored == list(range(150))


class TestDeterminism:
    def test_identical_plan_replays_identically(self):
        plan = FaultPlan(
            crashes=(CrashAt(at=1.3, target="b"),),
            stalls=(StallAt(at=0.6, target="a", duration=0.4),),
        )

        def run_once():
            runtime = Runtime(fault_plan=plan)
            log = []

            def worker(name, seconds):
                try:
                    for step in range(4):
                        log.append((name, step, runtime.clock.now))
                        yield Advance(seconds)
                except InjectedCrash:
                    log.append((name, "crash", runtime.clock.now))

            runtime.spawn("a", worker("a", 0.7))
            runtime.spawn("b", worker("b", 1.1))
            runtime.run()
            return log, crashes(runtime), stalled(runtime)

        assert run_once() == run_once()
