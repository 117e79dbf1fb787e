"""The discrete-event kernel: processes, effects, signals, scheduler.

A :class:`Process` is a Python generator that yields *effects*:

* ``Advance(seconds, state)`` — consume ``seconds`` of simulated time,
  accounted to ``state`` (busy by default);
* ``Wait(signal, state)`` — suspend until another process notifies the
  signal; elapsed time is accounted to ``state`` (``idle`` for starvation,
  ``blocked`` for backpressure).

The :class:`Runtime` drives processes strictly in simulated-time order
(ties broken by scheduling sequence, FIFO), so a run is bit-for-bit
deterministic and side effects executed by process code interleave in the
same order the simulated schedule says they happen.  If every remaining
process is waiting on a signal nobody can fire, the run aborts with a
:class:`~repro.errors.DeadlockError` naming the stuck processes.

Fault injection: an installed :class:`~repro.runtime.faults.FaultPlan`
adds *interrupt* events to the schedule.  A scheduled crash throws
:class:`~repro.errors.InjectedCrash` into the target process at its
simulated time (cancelling the process's pending resume or wait via a
resume token), and a scheduled stall delays the target's next resume by
the stall duration, accounted as blocked time.  Because interrupts ride
the same deterministic event heap, a faulty run replays identically.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from ..errors import DeadlockError, InjectedCrash, SchedulingError
from .clock import Clock

#: process accounting states
BUSY = "busy"
IDLE = "idle"
BLOCKED = "blocked"
_STATES = (BUSY, IDLE, BLOCKED)


@dataclass(frozen=True)
class Advance:
    """Consume ``seconds`` of simulated time in ``state``."""

    seconds: float
    state: str = BUSY

    def __post_init__(self):
        if self.seconds < 0:
            raise SchedulingError(f"cannot advance by {self.seconds!r} seconds")
        if self.state not in _STATES:
            raise SchedulingError(f"unknown accounting state: {self.state!r}")


@dataclass(frozen=True)
class Wait:
    """Suspend until ``signal`` is notified; account elapsed time to ``state``."""

    signal: "Signal"
    state: str = IDLE

    def __post_init__(self):
        if self.state not in _STATES:
            raise SchedulingError(f"unknown accounting state: {self.state!r}")


class Signal:
    """A broadcast wake-up point: waiters resume at the current sim time."""

    def __init__(self, runtime: "Runtime", name: str):
        self._runtime = runtime
        self.name = name
        self._waiters: List[Tuple["Process", int]] = []
        self.notifications = 0

    def wait(self, process: "Process") -> None:
        # Capture the resume token: an interrupt (injected crash) that
        # fires while this process waits invalidates the registration, so
        # a later notify cannot resume a generator mid-restart.
        self._waiters.append((process, process._token))

    def notify_all(self) -> None:
        """Schedule every still-valid waiter to resume now (FIFO order)."""
        self.notifications += 1
        waiters, self._waiters = self._waiters, []
        for process, token in waiters:
            if process.done or token != process._token:
                continue
            self._runtime._schedule(self._runtime.clock.now, process)

    @property
    def waiter_names(self) -> List[str]:
        return [w.name for w, _token in self._waiters]

    def __repr__(self):
        return f"<Signal {self.name} waiters={self.waiter_names}>"


class Process:
    """A cooperatively-scheduled actor with busy/idle/blocked accounting."""

    def __init__(
        self,
        name: str,
        generator: Generator,
        layer: Optional[str] = None,
        epoch: float = 0.0,
    ):
        self.name = name
        self.layer = layer or name
        self._gen = generator
        self.done = False
        self.totals: Dict[str, float] = {BUSY: 0.0, IDLE: 0.0, BLOCKED: 0.0}
        #: merged (state, start, end) segments, relative to the runtime epoch
        self.timeline: List[Tuple[str, float, float]] = []
        self._epoch = epoch
        self._pending_state: Optional[str] = None
        self._suspended_at = 0.0
        #: resume token: bumped on every schedule and every interrupt, so
        #: stale heap entries and stale signal waits are skipped
        self._token = 0
        self.crashes_received = 0
        self.stall_seconds = 0.0  # injected slow-consumer stall time

    def _suspend(self, now: float, state: str) -> None:
        self._pending_state = state
        self._suspended_at = now

    def _account(self, now: float) -> None:
        """Attribute time since the last suspension to its pending state."""
        state = self._pending_state
        if state is None:
            return
        self._pending_state = None
        elapsed = now - self._suspended_at
        if elapsed <= 0:
            return
        self.totals[state] += elapsed
        start = self._suspended_at - self._epoch
        end = now - self._epoch
        if self.timeline and self.timeline[-1][0] == state and (
            abs(self.timeline[-1][2] - start) < 1e-12
        ):
            last = self.timeline[-1]
            self.timeline[-1] = (state, last[1], end)
        else:
            self.timeline.append((state, start, end))

    def __repr__(self):
        status = "done" if self.done else (self._pending_state or "ready")
        return f"<Process {self.name} [{self.layer}] {status}>"


class Runtime:
    """A deterministic discrete-event scheduler over a shared clock."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        name: str = "runtime",
        fault_plan=None,
    ):
        self.clock = clock or Clock()
        self.name = name
        self.epoch = self.clock.now
        self.processes: List[Process] = []
        # heap entries: (at, seq, process, token, throw_exc).  token is the
        # process's resume token (stale entries are skipped) or None for
        # interrupt entries, which fire regardless of pending resumes.
        self._heap: List[Tuple[float, int, Process, Optional[int], Optional[BaseException]]] = []
        self._seq = 0
        self._finished = False
        self.fault_plan = fault_plan
        self._consumed_stalls: set = set()
        self.injected_crashes = 0
        self.injected_stall_seconds = 0.0

    # ---------------------------------------------------------------- wiring

    def signal(self, name: str) -> Signal:
        return Signal(self, name)

    def install_fault_plan(self, fault_plan) -> None:
        """Attach a :class:`~repro.runtime.faults.FaultPlan` to this run.

        Must happen before the targeted processes are spawned — crash
        events are materialized at spawn time.
        """
        self.fault_plan = fault_plan

    def spawn(
        self, name: str, generator: Generator, layer: Optional[str] = None
    ) -> Process:
        """Register a process and schedule its first step at the current time."""
        process = Process(name, generator, layer=layer, epoch=self.epoch)
        self.processes.append(process)
        self._schedule(self.clock.now, process)
        if self.fault_plan is not None:
            now = self.clock.now - self.epoch
            for crash in self.fault_plan.crashes_for(process.name, process.layer):
                # A process spawned mid-run (an elastic worker scaled up
                # after the crash's scheduled time) did not exist when the
                # fault was due; it must not receive the interrupt late.
                if crash.at < now - 1e-12:
                    continue
                self.interrupt_at(
                    self.epoch + crash.at, process, InjectedCrash(crash)
                )
        return process

    def _schedule(self, at: float, process: Process) -> None:
        self._seq += 1
        process._token += 1
        heapq.heappush(self._heap, (at, self._seq, process, process._token, None))

    def interrupt_at(self, at: float, process: Process, exc: BaseException) -> None:
        """Schedule ``exc`` to be thrown into ``process`` at sim time ``at``."""
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, process, None, exc))

    # --------------------------------------------------------------- running

    def run(self) -> float:
        """Drive every process to completion; returns elapsed sim seconds.

        A process exception aborts the run and propagates to the caller —
        the feed pipeline's cleanup path is responsible for releasing
        cluster state.
        """
        while self._heap:
            at, _seq, process, token, exc = heapq.heappop(self._heap)
            if process.done:
                continue
            if token is not None and token != process._token:
                continue  # superseded by an interrupt or a newer schedule
            self.clock.advance_to(at)
            if exc is None:
                stall = self._due_stall(process)
                if stall is not None:
                    # Slow-consumer stall: delay this resume by the stall
                    # duration, accounted as blocked time.
                    process._account(self.clock.now)
                    process._suspend(self.clock.now, BLOCKED)
                    process.stall_seconds += stall.duration
                    self.injected_stall_seconds += stall.duration
                    self._schedule(self.clock.now + stall.duration, process)
                    continue
            process._account(self.clock.now)
            try:
                if exc is not None:
                    # Injected crash: cancel any pending resume/wait, then
                    # throw into the generator at its suspension point.
                    process._token += 1
                    process.crashes_received += 1
                    self.injected_crashes += 1
                    effect = process._gen.throw(exc)
                else:
                    effect = next(process._gen)
            except StopIteration:
                process.done = True
                continue
            if isinstance(effect, Advance):
                process._suspend(self.clock.now, effect.state)
                self._schedule(self.clock.now + effect.seconds, process)
            elif isinstance(effect, Wait):
                process._suspend(self.clock.now, effect.state)
                effect.signal.wait(process)
            else:
                raise SchedulingError(
                    f"process {process.name!r} yielded {effect!r}; "
                    f"expected Advance or Wait"
                )
        stuck = [p for p in self.processes if not p.done]
        if stuck:
            raise DeadlockError(
                "no runnable process and no pending event; stuck: "
                + ", ".join(
                    f"{p.name} ({p._pending_state or 'never ran'})" for p in stuck
                )
            )
        self._finished = True
        return self.clock.now - self.epoch

    def _due_stall(self, process: Process):
        """First unconsumed stall targeting ``process`` that is now due."""
        if self.fault_plan is None:
            return None
        now = self.clock.now - self.epoch
        for index, stall in self.fault_plan.stalls_for(process.name, process.layer):
            if index in self._consumed_stalls:
                continue
            if stall.at <= now + 1e-12:
                self._consumed_stalls.add(index)
                return stall
        return None

    @property
    def elapsed(self) -> float:
        return self.clock.now - self.epoch
