"""Bounded hand-off points between runtime processes.

Two flavors:

* :class:`Channel` — a generic bounded FIFO of work items (used for the
  computing→storage hand-off: one item per stored batch);
* :class:`IntakeBuffer` — the intake→computing hand-off, layered directly
  on the feed's :class:`~repro.hyracks.partition_holder.PassivePartitionHolder`
  set.  ``put`` *blocks* (accounted as backpressure) when the target
  holder is full — the force-append escape hatch the sequential driver
  used is gone — and ``collect`` assembles balanced batches, waking when
  data arrives, the feed ends, or the producer is stalled and the buffer
  must be drained to make progress.

Both are coroutine-style: ``put``/``get``/``collect`` are generators that
must be driven with ``yield from`` inside a runtime process.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from ..errors import PartitionHolderError
from ..hyracks.frame import Frame
from ..hyracks.partition_holder import PassivePartitionHolder
from .kernel import Advance, BLOCKED, IDLE, Runtime, Wait
from .metrics import FaultMetrics

#: congestion reactions an :class:`IntakeBuffer` can apply when a holder
#: is full (the ingestion policy's congestion knob, lowered to strings so
#: the runtime layer stays independent of the ingestion package)
CONGESTION_BLOCK = "block"
CONGESTION_DISCARD = "discard"
CONGESTION_THROTTLE = "throttle"
#: a throttled producer's first admission delay, doubled on each failed
#: offer up to the cap (simulated seconds)
THROTTLE_SECONDS = 0.01
THROTTLE_MAX_SECONDS = 0.64


class _Cancelled:
    """Sentinel: a consumer was retired while waiting for work."""

    def __repr__(self):
        return "<CANCELLED>"


#: returned by :meth:`IntakeBuffer.collect` when the consumer's ``cancel``
#: hook claims it (elastic scale-down) instead of a batch arriving
CANCELLED = _Cancelled()


class Channel:
    """A bounded FIFO of items with blocking put and EOF semantics."""

    def __init__(self, runtime: Runtime, capacity: int, name: str = "channel"):
        if capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        self.runtime = runtime
        self.capacity = capacity
        self.name = name
        self._items: Deque[object] = deque()
        self._eof = False
        self._not_full = runtime.signal(f"{name}.not_full")
        self._not_empty = runtime.signal(f"{name}.not_empty")
        self.stalls = 0  # producer block events (backpressure)
        self.high_water = 0
        self.put_count = 0
        self.send_failures = 0  # injected transient failures (retried)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item):
        """Coroutine: enqueue ``item``, blocking while the channel is full.

        An installed :class:`~repro.runtime.faults.FaultPlan` can make a
        specific send fail transiently: the sender waits out the retry
        delay (blocked) and the resend succeeds — at-least-once, nothing
        lost.
        """
        if self._eof:
            raise PartitionHolderError(f"channel {self.name} is closed")
        plan = self.runtime.fault_plan
        if plan is not None:
            failure = plan.channel_put_failure(self.name, self.put_count)
            if failure is not None:
                self.send_failures += 1
                if failure.retry_seconds > 0:
                    yield Advance(failure.retry_seconds, state=BLOCKED)
        stalled = False
        while len(self._items) >= self.capacity:
            if not stalled:
                self.stalls += 1
                stalled = True
            yield Wait(self._not_full, state=BLOCKED)
        self._items.append(item)
        self.put_count += 1
        self.high_water = max(self.high_water, len(self._items))
        self._not_empty.notify_all()

    def get(self):
        """Coroutine: dequeue one item; returns ``None`` once drained at EOF."""
        while not self._items:
            if self._eof:
                return None
            yield Wait(self._not_empty, state=IDLE)
        item = self._items.popleft()
        self._not_full.notify_all()
        return item

    def end(self) -> None:
        self._eof = True
        self._not_empty.notify_all()


class IntakeBuffer:
    """The intake→computing hand-off over the feed's passive holders.

    One buffer spans the feed's ``n`` intake partition holders (holder
    ``p`` lives on node ``p``); the producer targets a specific holder and
    the consumer collects record batches balanced across all of them.
    """

    def __init__(
        self,
        runtime: Runtime,
        holders: Sequence[PassivePartitionHolder],
        congestion: str = CONGESTION_BLOCK,
        faults: Optional[FaultMetrics] = None,
    ):
        if congestion not in (
            CONGESTION_BLOCK, CONGESTION_DISCARD, CONGESTION_THROTTLE
        ):
            raise ValueError(f"unknown congestion mode: {congestion!r}")
        self.runtime = runtime
        self.holders = list(holders)
        self.congestion = congestion
        self.faults = faults
        self._data_ready = runtime.signal("intake.data_ready")
        self._space_freed = runtime.signal("intake.space_freed")
        self.stalls = 0  # distinct producer block events
        self.producer_blocked = False

    # --------------------------------------------------------------- producer

    def _wait_out_disconnect(self, holder: PassivePartitionHolder):
        """Coroutine: block while the target holder is disconnected."""
        plan = self.runtime.fault_plan
        if plan is None:
            return
        while True:
            now = self.runtime.clock.now - self.runtime.epoch
            until = plan.holder_disconnected_until(
                holder.holder_id, holder.partition, now
            )
            if until is None:
                return
            if self.faults is not None:
                self.faults.disconnect_waits += 1
            holder.note_disconnected(until - now)
            yield Advance(until - now, state=BLOCKED)

    def put(self, target: int, frame: Frame):
        """Coroutine: offer ``frame`` to holder ``target``; congestion is
        handled per the feed's policy.

        * ``block`` (default) — wait for space, accounted as backpressure;
        * ``discard`` — drop the frame and count it (lossy by contract);
        * ``throttle`` — retry with exponentially growing admission delays
          instead of waiting on the consumer's signal.

        Every failed offer is metered by the holder (``rejected``); block
        durations are charged to the holder's ``blocked_seconds``.  A
        holder disconnected by the fault plan is waited out first.
        """
        holder = self.holders[target]
        yield from self._wait_out_disconnect(holder)
        stalled_at: Optional[float] = None
        delay = THROTTLE_SECONDS
        while not holder.offer(frame):
            if stalled_at is None:
                self.stalls += 1
                stalled_at = self.runtime.clock.now
            if self.congestion == CONGESTION_DISCARD:
                if self.faults is not None:
                    self.faults.frames_dropped += 1
                    self.faults.records_discarded += len(frame)
                self.producer_blocked = False
                return
            self.producer_blocked = True
            if self.congestion == CONGESTION_THROTTLE:
                if self.faults is not None:
                    self.faults.throttle_seconds += delay
                yield Advance(delay, state=BLOCKED)
                delay = min(delay * 2, THROTTLE_MAX_SECONDS)
            else:
                yield Wait(self._space_freed, state=BLOCKED)
        if stalled_at is not None:
            holder.note_blocked(self.runtime.clock.now - stalled_at)
        self.producer_blocked = False
        self._data_ready.notify_all()

    def end(self) -> None:
        for holder in self.holders:
            holder.end()
        self._data_ready.notify_all()

    def kick(self) -> None:
        """Wake every waiting consumer so cancel hooks are re-checked."""
        self._data_ready.notify_all()

    # --------------------------------------------------------------- consumer

    @property
    def queued_records(self) -> int:
        return sum(holder.queued_records for holder in self.holders)

    @property
    def queued_frames(self) -> int:
        return sum(len(holder) for holder in self.holders)

    @property
    def capacity_frames(self) -> int:
        return sum(holder.capacity for holder in self.holders)

    @property
    def occupancy(self) -> float:
        """Queued fraction of the buffer's total frame capacity, 0..1."""
        capacity = self.capacity_frames
        if capacity <= 0:
            return 0.0
        return self.queued_frames / capacity

    @property
    def all_eof(self) -> bool:
        return all(holder.eof for holder in self.holders)

    @property
    def drained(self) -> bool:
        return all(holder.drained for holder in self.holders)

    def collect(self, batch_size: int, cancel=None, steal=None):
        """Coroutine: assemble one batch of up to ``batch_size`` records.

        Returns per-partition record lists, or ``None`` once the buffer is
        fully drained after EOF.  A batch forms when enough records are
        queued, when the feed ended (partial final batch), or when the
        producer is blocked on a full holder — draining then is what
        relieves the backpressure, so a bounded buffer smaller than a
        batch cannot deadlock the feed.

        ``steal`` (optional callable) is polled first on every pass: when
        it returns a non-``None`` work item, that item is returned
        directly instead of a batch — how the worker pool hands pending
        sub-batches of an oversized batch to idle peers (woken via
        :meth:`kick`).

        ``cancel`` (optional callable) is polled before each wait; when it
        returns true the consumer is retired and :data:`CANCELLED` is
        returned instead of a batch — the elastic controller's scale-down
        hand-shake.  Multiple consumers may collect concurrently; each
        batch goes to exactly one of them.
        """
        while True:
            if steal is not None:
                stolen = steal()
                if stolen is not None:
                    return stolen
            if cancel is not None and cancel():
                return CANCELLED
            queued = self.queued_records
            if queued >= batch_size:
                break
            if self.all_eof:
                if queued == 0:
                    return None
                break
            if queued > 0 and self.producer_blocked:
                break
            yield Wait(self._data_ready, state=IDLE)
        take = min(batch_size, self.queued_records)
        pulled = self._pull_balanced(take)
        self._space_freed.notify_all()
        return pulled

    def _pull_balanced(self, take: int) -> List[List[dict]]:
        """Pull ``take`` records, balanced across partitions, FIFO per holder."""
        n = len(self.holders)
        share = max(1, math.ceil(take / n))
        pulled: List[List[dict]] = []
        remaining = take
        for holder in self.holders:
            got = holder.poll_batch(min(share, remaining))
            pulled.append(got)
            remaining -= len(got)
        # Top up from any partition with leftovers if we fell short.
        if remaining > 0:
            for p, holder in enumerate(self.holders):
                if remaining <= 0:
                    break
                extra = holder.poll_batch(remaining)
                pulled[p].extend(extra)
                remaining -= len(extra)
        return pulled


class Sequencer:
    """Order-preserving hand-off in front of a consumer of indexed work.

    Concurrent producers (the computing worker pool) complete batches out
    of index order; the storage layer's semantics — pk-upsert order, acked
    guarantees, dead-letter provenance — require release in index order.
    ``put(index, payload)`` stashes out-of-order payloads and, once the
    next expected index arrives, synchronously calls ``release(payload)``
    for each consecutive index and forwards each release's return value to
    the optional downstream :class:`Channel`.

    ``put`` is a coroutine (it may block on the downstream channel) and
    returns the list of ``(index, release_result)`` pairs it released, so
    a coupled pipeline can charge the released work to the caller.

    **Sub-batch merge**: an oversized batch split across the worker pool
    arrives as ``num_subs`` puts sharing one ``index`` with distinct
    ``sub_index`` values (in any order, from any worker).  The sequencer
    accumulates the sub-results and, once all have arrived, reassembles
    them with ``merge`` (sub-index order — i.e. record order) before the
    usual in-order release, so the stored output is byte-identical to the
    unsplit batch at any (partitions, splits, workers) configuration.

    Re-putting an index that was already released (a supervised worker
    replaying its un-acked in-flight batch — or sub-batch — after a
    crash) releases it again immediately — at-least-once semantics, with
    duplicate effects resolved downstream exactly as single-actor replay
    resolves them.
    """

    def __init__(self, release, channel: Optional[Channel] = None, merge=None):
        self.release = release
        self.channel = channel
        self.merge = merge
        self.next_index = 0
        self._stash: Dict[int, object] = {}
        self._subs: Dict[int, Dict[int, object]] = {}
        self.reordered = 0  # puts that had to wait for an earlier index
        self.subbatch_merges = 0  # indices reassembled from sub-batches

    def __len__(self) -> int:
        return len(self._stash)

    def _assemble(self, index: int, payload, sub_index: int, num_subs: int):
        """Collect one sub-result; returns the merged payload when whole.

        Returns ``None`` while sub-results are still outstanding.  A
        replayed sub-index overwrites its slot idempotently.
        """
        if num_subs <= 1:
            return payload
        subs = self._subs.setdefault(index, {})
        subs[sub_index] = payload
        if len(subs) < num_subs:
            return None
        del self._subs[index]
        parts = [subs[k] for k in sorted(subs)]
        self.subbatch_merges += 1
        return self.merge(parts) if self.merge is not None else parts

    def put(self, index: int, payload, sub_index: int = 0, num_subs: int = 1):
        """Coroutine: hand off batch ``index``; releases all consecutive."""
        out = []
        if index < self.next_index:
            # crash replay of an already-released batch (or one of its
            # sub-batches): release the replayed payload again
            result = self.release(payload)
            out.append((index, result))
            if self.channel is not None:
                yield from self.channel.put(result)
            return out
        complete = self._assemble(index, payload, sub_index, num_subs)
        if complete is None:
            return out  # sub-batches still outstanding
        self._stash[index] = complete
        if index != self.next_index:
            self.reordered += 1
        while self.next_index in self._stash:
            result = self.release(self._stash.pop(self.next_index))
            out.append((self.next_index, result))
            self.next_index += 1
            if self.channel is not None:
                yield from self.channel.put(result)
        return out
