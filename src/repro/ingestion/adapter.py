"""Feed adapters: how external data enters the system (paper §2.3).

An adapter obtains/receives data from an external source as raw bytes and
arranges it into frames.  We provide:

* :class:`GeneratorAdapter` — wraps any iterator of raw JSON strings (the
  synthetic firehose used by the benchmarks);
* :class:`QueueAdapter` — a socket-feed stand-in: an external producer
  ``send()``s records, the feed drains them;
* :class:`FileAdapter` — replays newline-delimited JSON from a file, and
  can :meth:`~FileAdapter.split` itself into contiguous line-range
  partitions for partitioned intake.

Adapters yield *envelopes* ``{"raw": <json text>, "seq": <n>}``; ``seq``
is the adapter-local record sequence number (the file line number for a
:class:`FileAdapter`) and is the record's *provenance*: parse errors and
dead-letter entries carry it so the offending input can be identified.
A file line that is not UTF-8 is a malformed record, not a dead adapter:
its envelope carries the line's ``bytes`` as ``raw`` and the parser turns
them into the same ``AdmParseError`` — and the same policy decision — as
any other malformed JSON.
Parsing into typed ADM records is a separate pipeline stage (coupled with
intake in the old framework, moved into the computing job in the new one).

Resume convention: :meth:`~FeedAdapter.resume_position` returns a cursor
identifying the last envelope *drawn*; feeding it back to
:meth:`~FeedAdapter.envelopes` as ``resume_from`` skips everything at or
before that cursor.  For the count-based adapters the cursor is the
maximum ``seq`` delivered (``-1`` before any draw); a :class:`FileAdapter`
cursor is a ``(line, byte_offset)`` pair, so a re-open *seeks* — O(1) —
instead of re-scanning the file from its head.  An ``int`` ``resume_from``
(a ``seq`` watermark, e.g. from a durable checkpoint) is accepted by every
adapter and skips by sequence number.

A :class:`QueueAdapter` drained before ``end()`` yields the
:data:`ADAPTER_IDLE` sentinel instead of raising: under the discrete-event
runtime an empty-but-open queue is a *starved intake*, surfaced as idle
time (bounded by the feed policy's ``adapter_idle_timeout_seconds``), not
a crash.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..errors import FeedStateError

#: a resume cursor: a seq watermark, or an adapter-specific position pair
ResumeCursor = Union[int, Tuple[int, int], List[int], None]


class _AdapterIdle:
    """Sentinel: the adapter has no data *right now* but has not ended."""

    def __repr__(self):
        return "<ADAPTER_IDLE>"


#: yielded by an adapter whose source is open but momentarily empty
ADAPTER_IDLE = _AdapterIdle()


class FeedAdapter:
    """Base adapter protocol: an iterator of raw-record envelopes."""

    def envelopes(
        self, resume_from: ResumeCursor = None
    ) -> Iterator[Dict[str, object]]:
        """Iterate raw-record envelopes.

        ``resume_from`` re-opens the source after an adapter death or a
        durable run restart: the iterator skips everything at or before
        that cursor (a value previously returned by
        :meth:`resume_position`, or a plain ``seq`` watermark), so a
        restarted intake actor continues exactly where the dead adapter
        stopped.  Skipped-over duplicates are harmless anyway — storage
        dedupes replayed records by primary-key upsert.
        """
        raise NotImplementedError

    def resume_position(self) -> ResumeCursor:
        """Cursor of the last envelope drawn (``-1`` before any draw).

        Feed it back to :meth:`envelopes` as ``resume_from`` to continue a
        stream whose source died mid-fetch.  For count-based adapters the
        cursor is the maximum delivered ``seq``; subclasses may return a
        richer position (the :class:`FileAdapter` returns a
        ``(line, byte_offset)`` pair for O(1) seeks).
        """
        return getattr(self, "received", 0) - 1

    def close(self) -> None:
        """Release external resources.

        Idempotent: feed teardown and supervised re-opens may call this
        any number of times, including interleaved with fresh
        :meth:`envelopes` iterations.
        """


class GeneratorAdapter(FeedAdapter):
    """Adapter over an in-process generator of raw JSON strings."""

    def __init__(self, raw_records: Iterable[str]):
        self._source = iter(raw_records)
        self.received = 0

    def resume_position(self) -> int:
        """Maximum ``seq`` delivered so far (``-1`` before any draw)."""
        return self.received - 1

    def envelopes(
        self, resume_from: ResumeCursor = None
    ) -> Iterator[Dict[str, object]]:
        # A live re-open simply continues the underlying iterator (its
        # next item already has seq > resume_from); a *fresh* instance
        # over a replayed source skips everything at or below the cursor.
        skip = resume_from if resume_from is not None else -1
        for raw in self._source:
            seq = self.received
            self.received += 1
            if seq <= skip:
                continue
            yield {"raw": raw, "seq": seq}


class QueueAdapter(FeedAdapter):
    """Socket-style adapter: producers push, the feed drains.

    ``send`` enqueues one raw record; ``end`` marks the stream complete.
    Iterating an empty-but-open queue yields :data:`ADAPTER_IDLE` — the
    feed runtime accounts the starvation as idle time and applies the
    policy's idle timeout, rather than crashing the pipeline.
    """

    def __init__(self):
        self._queue: deque = deque()
        self._ended = False
        self.received = 0

    def send(self, raw: str) -> None:
        if self._ended:
            raise FeedStateError("adapter already ended; cannot send more data")
        self._queue.append(raw)

    def send_many(self, raws: Iterable[str]) -> None:
        for raw in raws:
            self.send(raw)

    def end(self) -> None:
        self._ended = True

    @property
    def pending(self) -> int:
        return len(self._queue)

    def resume_position(self) -> int:
        """Maximum ``seq`` delivered so far (``-1`` before any draw)."""
        return self.received - 1

    def envelopes(
        self, resume_from: ResumeCursor = None
    ) -> Iterator[Dict[str, object]]:
        # The queue only holds undrawn records (drawn ones were popped),
        # so a live re-open resumes naturally with monotonically
        # continuing seq numbers; a fresh instance whose producer replays
        # the stream from the start skips seqs at or below the cursor.
        skip = resume_from if resume_from is not None else -1
        while True:
            if self._queue:
                seq = self.received
                self.received += 1
                raw = self._queue.popleft()
                if seq <= skip:
                    continue
                yield {"raw": raw, "seq": seq}
            elif self._ended:
                return
            else:
                yield ADAPTER_IDLE


class FileAdapter(FeedAdapter):
    """Replays newline-delimited JSON records from a file.

    ``seq`` on each envelope is the 1-based file line number — globally
    unique provenance even when the file is :meth:`split` into partition
    ranges.  The adapter tracks the byte offset alongside the line number,
    so :meth:`resume_position` returns a ``(line, byte_offset)`` cursor
    and a re-open *seeks* straight to it (O(1)) instead of re-scanning
    from the file head.  A plain ``int`` ``resume_from`` (a line-number
    watermark from a durable checkpoint) is still accepted and skips by
    scanning the adapter's own range.

    The file handle is released when iteration completes, when the
    generator is closed mid-iteration (``GeneratorExit``), or when feed
    teardown calls :meth:`close` — whichever comes first; :meth:`close`
    is idempotent across supervised re-opens.
    """

    def __init__(
        self,
        path: str,
        start_line: int = 1,
        end_line: Optional[int] = None,
        start_offset: int = 0,
    ):
        self.path = path
        self.received = 0
        #: partition range: lines ``start_line..end_line`` inclusive
        #: (``end_line=None`` — to end of file), starting at byte
        #: ``start_offset``
        self.start_line = start_line
        self.end_line = end_line
        self.start_offset = start_offset
        self.last_line = start_line - 1  # line number last yielded
        self.last_offset = start_offset  # byte offset just past that line
        self._handle = None

    def resume_position(self) -> Tuple[int, int]:
        """``(line, byte_offset)`` of the last envelope drawn.

        ``line`` is the 1-based line number last yielded;
        ``byte_offset`` is the offset just past that line, so a re-open
        seeks there directly.
        """
        return (self.last_line, self.last_offset)

    def envelopes(
        self, resume_from: ResumeCursor = None
    ) -> Iterator[Dict[str, object]]:
        if isinstance(resume_from, (tuple, list)):
            # O(1) resume: seek to the cursor's byte offset
            line, offset = resume_from
            next_line = int(line) + 1
            start_offset = int(offset)
            skip_through = 0
        else:
            next_line = self.start_line
            start_offset = self.start_offset
            skip_through = int(resume_from or 0)
        # Binary mode: text-mode files forbid tell() during iteration, and
        # byte offsets are what make the resume cursor seekable.
        handle = open(self.path, "rb")
        self._handle = handle
        handle.seek(start_offset)
        offset = start_offset
        line_number = next_line - 1
        end_line = self.end_line
        try:
            for raw_line in handle:
                line_number += 1
                offset += len(raw_line)
                if end_line is not None and line_number > end_line:
                    break
                if line_number <= skip_through:
                    continue  # already delivered before the re-open
                try:
                    line = raw_line.decode("utf-8").strip()
                except UnicodeDecodeError:
                    # not text: the bytes travel as the record, and the
                    # parser reports them malformed under this line's seq
                    line = raw_line.strip()
                if line:
                    self.received += 1
                    self.last_line = line_number
                    self.last_offset = offset
                    yield {"raw": line, "seq": line_number}
        finally:
            handle.close()
            if self._handle is handle:
                self._handle = None

    def split(self, num_partitions: int) -> List["FileAdapter"]:
        """Split this adapter into ``num_partitions`` contiguous ranges.

        One counting scan computes balanced line ranges and each range's
        starting byte offset, so every partition adapter opens directly at
        its own range (no per-partition re-scan).  ``seq`` numbers remain
        global file line numbers, so provenance and the per-partition
        resume watermarks stay unambiguous across partitions.
        """
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        offsets = [self.start_offset]
        with open(self.path, "rb") as handle:
            handle.seek(self.start_offset)
            for raw_line in handle:
                offsets.append(offsets[-1] + len(raw_line))
        total = len(offsets) - 1
        if self.end_line is not None:
            total = min(total, self.end_line - self.start_line + 1)
        parts: List[FileAdapter] = []
        for p in range(num_partitions):
            lo = (total * p) // num_partitions  # covers lines lo+1..hi
            hi = (total * (p + 1)) // num_partitions
            parts.append(
                FileAdapter(
                    self.path,
                    start_line=self.start_line + lo,
                    end_line=self.start_line + hi - 1,
                    start_offset=offsets[lo],
                )
            )
        if parts:
            parts[-1].end_line = (
                self.end_line  # unbounded tail unless this range was bounded
            )
        return parts

    @property
    def is_open(self) -> bool:
        return self._handle is not None and not self._handle.closed

    def close(self) -> None:
        """Release the file handle if a pipeline aborted mid-iteration."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def drain_available(adapter: FeedAdapter) -> List[Dict[str, object]]:
    """Collect every envelope available *now*, stopping at the first idle.

    The static pipeline is synchronous: nothing can arrive after it starts
    draining, so an idle-but-open adapter simply contributes what it has.
    """
    envelopes: List[Dict[str, object]] = []
    for envelope in adapter.envelopes():
        if envelope is ADAPTER_IDLE:
            break
        envelopes.append(envelope)
    return envelopes
