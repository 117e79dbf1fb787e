"""Hyracks substrate tests."""

from repro.hyracks.operators import CallbackSink


def collect_into(out: list):
    """A sink factory appending every delivered record to ``out``."""
    return lambda ctx: CallbackSink(ctx, lambda _partition, frame: out.extend(frame.records))
