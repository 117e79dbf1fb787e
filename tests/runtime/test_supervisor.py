"""Supervised recovery: restarts, backoff, budgets, replayed state."""

from types import SimpleNamespace

import pytest

from repro.errors import FeedFailedError
from repro.runtime import (
    BLOCKED,
    Advance,
    CrashAt,
    FaultPlan,
    RestartPolicy,
    Runtime,
    Supervisor,
)


def tally(supervisor, name):
    """One actor's crashes, restarts, backoff seconds and give-up, read
    off the supervisor's event stream."""
    mine = [e for e in supervisor.events if e.subject == name]
    kinds = [e.kind for e in mine]
    return SimpleNamespace(
        crashes=kinds.count("crash"),
        restarts=kinds.count("restart"),
        backoff_seconds=sum(e.detail["backoff"] for e in mine if e.kind == "restart"),
        gave_up="give_up" in kinds,
    )


class TestRestartPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RestartPolicy(
            max_restarts=10,
            backoff_initial_seconds=0.1,
            backoff_multiplier=2.0,
            backoff_max_seconds=0.5,
        )
        assert policy.backoff_at(1) == pytest.approx(0.1)
        assert policy.backoff_at(2) == pytest.approx(0.2)
        assert policy.backoff_at(3) == pytest.approx(0.4)
        assert policy.backoff_at(4) == pytest.approx(0.5)  # capped
        assert policy.backoff_at(9) == pytest.approx(0.5)


class TestSupervisor:
    def test_crashed_actor_restarts_and_completes(self):
        plan = FaultPlan(crashes=(CrashAt(at=1.5, target="worker"),))
        runtime = Runtime(fault_plan=plan)
        supervisor = Supervisor(runtime, RestartPolicy(backoff_initial_seconds=0.25))
        # Un-acked work lives in closure state: the restarted body resumes
        # from the last acked step instead of starting over.
        state = {"next_step": 0, "log": []}

        def body_factory():
            while state["next_step"] < 5:
                state["log"].append((state["next_step"], runtime.clock.now))
                yield Advance(0.5)
                state["next_step"] += 1

        process = supervisor.spawn("worker", body_factory)
        runtime.run()
        assert state["next_step"] == 5
        stats = tally(supervisor, "worker")
        assert stats.crashes == 1 and stats.restarts == 1
        assert stats.backoff_seconds == pytest.approx(0.25)
        assert not stats.gave_up
        # step 2's Advance ends exactly at the crash (t=1.5); the crash
        # fires first (it was scheduled earlier), so step 2 was never acked
        # and replays after the 0.25s backoff
        steps = [s for s, _ in state["log"]]
        assert steps == [0, 1, 2, 2, 3, 4]
        assert process.crashes_received == 1
        assert process.totals[BLOCKED] == pytest.approx(0.25)

    def test_budget_exhausted_escalates(self):
        plan = FaultPlan(
            crashes=(
                CrashAt(at=0.2, target="worker"),
                CrashAt(at=0.4, target="worker"),
            )
        )
        runtime = Runtime(fault_plan=plan)
        supervisor = Supervisor(
            runtime, RestartPolicy(max_restarts=1, backoff_initial_seconds=0.01)
        )

        def body_factory():
            while True:
                yield Advance(0.1)

        supervisor.spawn("worker", body_factory)
        with pytest.raises(FeedFailedError, match="restart budget"):
            runtime.run()
        assert tally(supervisor, "worker").gave_up
        assert tally(supervisor, "worker").crashes == 2

    def test_crash_during_backoff_absorbed_as_another_attempt(self):
        # Second crash lands at t=0.3, while the actor is still waiting out
        # the 1.0s backoff from the first crash at t=0.2.
        plan = FaultPlan(
            crashes=(
                CrashAt(at=0.2, target="worker"),
                CrashAt(at=0.3, target="worker"),
            )
        )
        runtime = Runtime(fault_plan=plan)
        supervisor = Supervisor(
            runtime, RestartPolicy(max_restarts=3, backoff_initial_seconds=1.0)
        )
        done = []

        def body_factory():
            while runtime.clock.now < 3.0:
                yield Advance(0.1)
            done.append(True)

        supervisor.spawn("worker", body_factory)
        runtime.run()
        assert done == [True]
        assert tally(supervisor, "worker").crashes == 2
        assert tally(supervisor, "worker").restarts == 2

    def test_per_actor_policy_override(self):
        plan = FaultPlan(crashes=(CrashAt(at=0.05, target="fragile"),))
        runtime = Runtime(fault_plan=plan)
        supervisor = Supervisor(runtime, RestartPolicy(max_restarts=5))

        def body_factory():
            while True:
                yield Advance(0.1)

        supervisor.spawn(
            "fragile", body_factory, restart_policy=RestartPolicy(max_restarts=0)
        )
        with pytest.raises(FeedFailedError):
            runtime.run()

    def test_totals_aggregate_across_actors(self):
        plan = FaultPlan(
            crashes=(CrashAt(at=0.15, target="a"), CrashAt(at=0.25, target="b"))
        )
        runtime = Runtime(fault_plan=plan)
        supervisor = Supervisor(
            runtime, RestartPolicy(backoff_initial_seconds=0.1)
        )
        progress = {"a": 0, "b": 0}

        def make_body(name):
            def body():
                while progress[name] < 4:
                    yield Advance(0.1)
                    progress[name] += 1

            return body

        supervisor.spawn("a", make_body("a"))
        supervisor.spawn("b", make_body("b"))
        runtime.run()
        a, b = tally(supervisor, "a"), tally(supervisor, "b")
        assert a.crashes + b.crashes == 2
        assert a.restarts + b.restarts == 2
        assert a.backoff_seconds + b.backoff_seconds == pytest.approx(0.2)


class TestReplayDeterminism:
    def test_same_seeded_plan_same_recovery_trace(self):
        def run_once():
            plan = FaultPlan.generated(
                seed=42, horizon_seconds=1.0, crash_targets=("worker",)
            )
            runtime = Runtime(fault_plan=plan)
            supervisor = Supervisor(
                runtime, RestartPolicy(backoff_initial_seconds=0.05)
            )
            state = {"next": 0, "trace": []}

            def body_factory():
                while state["next"] < 20:
                    state["trace"].append((state["next"], runtime.clock.now))
                    yield Advance(0.1)
                    state["next"] += 1

            supervisor.spawn("worker", body_factory)
            elapsed = runtime.run()
            stats = tally(supervisor, "worker")
            return state["trace"], elapsed, stats.crashes, stats.restarts

        assert run_once() == run_once()


class TestPerActorRestartBudgets:
    """Each actor consumes only its own restart budget (not a shared pool)."""

    def test_two_concurrently_crashing_actors_have_independent_budgets(self):
        # Both actors crash twice; a shared budget of 2 would be exhausted
        # by their combined 4 attempts, but per-actor accounting lets both
        # recover and finish.
        plan = FaultPlan(
            crashes=(
                CrashAt(at=0.15, target="a"),
                CrashAt(at=0.17, target="b"),
                CrashAt(at=0.45, target="a"),
                CrashAt(at=0.47, target="b"),
            )
        )
        runtime = Runtime(fault_plan=plan)
        supervisor = Supervisor(
            runtime, RestartPolicy(max_restarts=2, backoff_initial_seconds=0.01)
        )
        progress = {"a": 0, "b": 0}

        def make_body(name):
            def body():
                while progress[name] < 8:
                    yield Advance(0.1)
                    progress[name] += 1

            return body

        supervisor.spawn("a", make_body("a"))
        supervisor.spawn("b", make_body("b"))
        runtime.run()
        assert progress == {"a": 8, "b": 8}
        for name in ("a", "b"):
            stats = tally(supervisor, name)
            assert stats.crashes == 2
            assert stats.restarts == 2
            assert not stats.gave_up

    def test_one_actor_exhausting_its_budget_does_not_charge_the_other(self):
        # "a" crashes three times against a budget of 2 and escalates;
        # "b" crashes once and must still have budget left when it does.
        plan = FaultPlan(
            crashes=(
                CrashAt(at=0.12, target="a"),
                CrashAt(at=0.14, target="b"),
                CrashAt(at=0.32, target="a"),
                CrashAt(at=0.52, target="a"),
            )
        )
        runtime = Runtime(fault_plan=plan)
        supervisor = Supervisor(
            runtime, RestartPolicy(max_restarts=2, backoff_initial_seconds=0.01)
        )

        def body_factory():
            while True:
                yield Advance(0.1)

        supervisor.spawn("a", body_factory)
        supervisor.spawn("b", body_factory)
        with pytest.raises(FeedFailedError, match="restart budget"):
            runtime.run()
        assert tally(supervisor, "a").gave_up
        assert tally(supervisor, "a").crashes == 3
        assert not tally(supervisor, "b").gave_up
        assert tally(supervisor, "b").crashes == 1
        assert tally(supervisor, "b").restarts == 1
