"""Concurrent reference-data update clients (paper §7.3).

During ingestion, a client program sends reference updates through a feed;
the update rate is in records per *simulated* second.  The feed driver
calls :meth:`advance` with the simulated time each batch took; the client
applies the corresponding number of updates, which activates the reference
dataset's in-memory LSM component and makes subsequent reference accesses
pay the activity penalty.
"""

from __future__ import annotations

from typing import Callable, Iterator


class ReferenceUpdateClient:
    """Applies updates at a fixed rate against simulated time.

    ``update_source`` yields update records; ``apply`` upserts one into the
    reference dataset.  Fractional updates carry over between calls so low
    rates still fire.
    """

    def __init__(
        self,
        rate_per_second: float,
        update_source: Iterator[dict],
        apply: Callable[[dict], None],
    ):
        if rate_per_second < 0:
            raise ValueError("rate_per_second must be >= 0")
        self.rate = rate_per_second
        self._source = iter(update_source)
        self._apply = apply
        self._carry = 0.0
        self.applied = 0
        #: True once ``update_source`` raised StopIteration: the client is
        #: permanently out of updates and later ``advance`` calls are
        #: no-ops (they do not accumulate carry or count as activity)
        self.exhausted = False

    def advance(self, sim_seconds: float) -> int:
        """Apply ``rate * sim_seconds`` updates; returns how many fired."""
        if self.exhausted or self.rate == 0 or sim_seconds <= 0:
            return 0
        self._carry += self.rate * sim_seconds
        fired = 0
        while self._carry >= 1.0:
            try:
                record = next(self._source)
            except StopIteration:
                self.exhausted = True
                self._carry = 0.0
                break
            self._apply(record)
            fired += 1
            self._carry -= 1.0
        self.applied += fired
        return fired
