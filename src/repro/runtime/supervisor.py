"""Supervised recovery: restart crashed layer actors on the sim clock.

The paper's layered framework exists so a long-running feed survives the
failure of one layer (§5): the intake and storage jobs run for the feed's
lifetime while computing jobs are re-invoked per batch.  The
:class:`Supervisor` makes that survival real on the discrete-event
runtime: it wraps each layer actor's body in a restart loop that catches
:class:`~repro.errors.InjectedCrash`, waits an exponential backoff on the
*simulated* clock (accounted as blocked time), and re-enters the body.

Replay is the body's job, not the supervisor's: a supervised body is a
*factory* returning a fresh generator, closing over whatever un-acked
state (the in-flight batch, undelivered frames) must be reprocessed after
a restart — at-least-once delivery, with duplicate storage writes resolved
by primary-key upsert downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional

from ..errors import FeedFailedError, InjectedCrash
from .kernel import Advance, BLOCKED, Process, Runtime
from .metrics import Event


@dataclass
class RestartPolicy:
    """How a supervisor reacts to a crashed actor."""

    max_restarts: int = 3
    backoff_initial_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max_seconds: float = 5.0

    def backoff_at(self, attempt: int) -> float:
        """Backoff before restart ``attempt`` (1-based), capped."""
        seconds = self.backoff_initial_seconds * (
            self.backoff_multiplier ** (attempt - 1)
        )
        return min(seconds, self.backoff_max_seconds)


class Supervisor:
    """Monitors layer actors; restarts crashed ones with bounded retries.

    Each crash, restart (with its backoff) and give-up is one event on
    ``events``, its owner's stream, subject the actor; nothing else.
    """

    def __init__(
        self,
        runtime: Runtime,
        restart_policy: Optional[RestartPolicy] = None,
        events: Optional[List[Event]] = None,
    ):
        self.runtime = runtime
        self.restart_policy = restart_policy or RestartPolicy()
        self.events = events if events is not None else []

    def spawn(
        self,
        name: str,
        body_factory: Callable[[], Generator],
        layer: Optional[str] = None,
        restart_policy: Optional[RestartPolicy] = None,
    ) -> Process:
        """Spawn ``body_factory()`` under supervision.

        The factory is invoked for the first run and once per restart; it
        must return a generator yielding runtime effects.  An injected
        crash beyond the restart budget escalates to
        :class:`~repro.errors.FeedFailedError`.
        """
        policy = restart_policy or self.restart_policy
        return self.runtime.spawn(
            name, self._supervise(name, body_factory, policy), layer=layer
        )

    def _note(self, kind: str, name: str, **detail) -> None:
        self.events.append(Event(self.runtime.clock.now, kind, name, detail))

    def _supervise(
        self,
        name: str,
        body_factory: Callable[[], Generator],
        policy: RestartPolicy,
    ) -> Generator:
        attempt = 0  # the loop only comes round again after a crash
        while True:
            try:
                if attempt:
                    # Backoff happens inside the try: a crash injected while
                    # the actor is down is absorbed as another attempt
                    # instead of escaping unsupervised.
                    backoff = policy.backoff_at(attempt)
                    self._note("restart", name, attempt=attempt, backoff=backoff)
                    if backoff > 0:
                        yield Advance(backoff, state=BLOCKED)
                yield from body_factory()
                return
            except InjectedCrash as crash:
                # The budget is the actor's own crashes on the stream: a
                # flapping actor (an intake partition) never spends its
                # peers' budget, and a re-spawn under its name keeps it.
                attempt = 1 + sum(
                    event.kind == "crash" and event.subject == name
                    for event in self.events
                )
                self._note("crash", name, attempt=attempt)
                if attempt > policy.max_restarts:
                    self._note("give_up", name)
                    raise FeedFailedError(
                        f"actor {name!r} crashed {attempt} time(s); "
                        f"restart budget ({policy.max_restarts}) exhausted"
                    ) from crash
