"""Frames: the unit of data transport inside and between Hyracks jobs.

Data in a runtime Hyracks job flows in frames containing multiple objects
(Section 2.2).  Operators read an incoming frame, process its records, and
push produced frames downstream through connectors.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

DEFAULT_FRAME_CAPACITY = 64


class Frame:
    """A batch of ADM records moving through the runtime.

    A ``list`` is handed over, not copied: the producer built it for this
    frame and does not touch it again.  Any other iterable is drained
    into a new list.
    """

    __slots__ = ("records",)

    def __init__(self, records: Iterable[dict] = ()):
        self.records: List[dict] = (
            records if type(records) is list else list(records)
        )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __repr__(self):
        return f"Frame({len(self.records)} records)"


def frames_of(
    records: Iterable[dict], capacity: int = DEFAULT_FRAME_CAPACITY
) -> Iterator[Frame]:
    """Pack an iterable of records into frames of at most ``capacity``."""
    if capacity < 1:
        raise ValueError("frame capacity must be >= 1")
    if isinstance(records, list):  # cut, not walked
        for start in range(0, len(records), capacity):
            yield Frame(records[start : start + capacity])
        return
    batch: List[dict] = []
    for record in records:
        batch.append(record)
        if len(batch) >= capacity:
            yield Frame(batch)
            batch = []
    if batch:
        yield Frame(batch)


class FrameWriter:
    """Receiver protocol for pushed frames (the Hyracks IFrameWriter)."""

    __slots__ = ()

    def open(self) -> None:
        """Prepare to receive frames."""

    def next_frame(self, frame: Frame) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """No more frames will arrive."""

    def fail(self) -> None:
        """The producer failed; release resources."""
        self.close()
