"""Feed adapters."""

import json

import pytest

from repro.errors import FeedStateError
from repro.ingestion import (
    ADAPTER_IDLE,
    FileAdapter,
    GeneratorAdapter,
    QueueAdapter,
    drain_available,
)


class TestGeneratorAdapter:
    def test_wraps_raw_records_with_provenance(self):
        adapter = GeneratorAdapter(['{"id": 1}', '{"id": 2}'])
        got = list(adapter.envelopes())
        assert got == [
            {"raw": '{"id": 1}', "seq": 0},
            {"raw": '{"id": 2}', "seq": 1},
        ]
        assert adapter.received == 2


class TestQueueAdapter:
    def test_send_then_drain(self):
        adapter = QueueAdapter()
        adapter.send_many(["a", "b"])
        adapter.end()
        assert [e["raw"] for e in adapter.envelopes()] == ["a", "b"]

    def test_send_after_end_rejected(self):
        adapter = QueueAdapter()
        adapter.end()
        with pytest.raises(FeedStateError):
            adapter.send("x")

    def test_empty_but_open_queue_yields_idle_sentinel(self):
        # A queue drained before end() is a *starved* intake, not an
        # error: the stream yields ADAPTER_IDLE so the feed runtime can
        # account idle time and apply the policy's idle timeout.
        adapter = QueueAdapter()
        adapter.send("a")
        stream = adapter.envelopes()
        assert next(stream)["raw"] == "a"
        assert next(stream) is ADAPTER_IDLE
        assert next(stream) is ADAPTER_IDLE
        adapter.send("b")
        assert next(stream)["raw"] == "b"
        adapter.end()
        with pytest.raises(StopIteration):
            next(stream)

    def test_seq_is_continuous_across_idle_gaps(self):
        adapter = QueueAdapter()
        stream = adapter.envelopes()
        adapter.send("a")
        assert next(stream)["seq"] == 0
        assert next(stream) is ADAPTER_IDLE
        adapter.send("b")
        assert next(stream)["seq"] == 1

    def test_pending_counts(self):
        adapter = QueueAdapter()
        adapter.send_many(["a", "b", "c"])
        assert adapter.pending == 3


class TestFileAdapter:
    def test_replays_ndjson(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text('{"id": 1}\n\n{"id": 2}\n')
        adapter = FileAdapter(str(path))
        got = [json.loads(e["raw"])["id"] for e in adapter.envelopes()]
        assert got == [1, 2]
        assert adapter.received == 2

    def test_seq_is_the_file_line_number(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text('{"id": 1}\n\n{"id": 2}\n')
        adapter = FileAdapter(str(path))
        assert [e["seq"] for e in adapter.envelopes()] == [1, 3]

    def test_handle_released_after_full_iteration(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text('{"id": 1}\n')
        adapter = FileAdapter(str(path))
        list(adapter.envelopes())
        assert not adapter.is_open

    def test_close_releases_handle_after_abort(self, tmp_path):
        # A pipeline that dies mid-iteration leaves the generator (and
        # the file handle) open; teardown's close() must release it.
        path = tmp_path / "data.ndjson"
        path.write_text('{"id": 1}\n{"id": 2}\n')
        adapter = FileAdapter(str(path))
        stream = adapter.envelopes()
        next(stream)
        assert adapter.is_open
        adapter.close()
        assert not adapter.is_open
        adapter.close()  # idempotent


class TestResumeCursor:
    def test_file_adapter_tracks_line_and_byte_offset(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text("".join(f'{{"id": {i}}}\n' for i in range(1, 6)))
        adapter = FileAdapter(str(path))
        assert adapter.resume_position() == (0, 0)
        stream = adapter.envelopes()
        next(stream)
        next(stream)
        # each line is 10 bytes; the cursor points just past line 2
        assert adapter.resume_position() == (2, 20)
        stream.close()

    def test_file_adapter_reopen_seeks_to_cursor(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text("".join(f'{{"id": {i}}}\n' for i in range(1, 6)))
        adapter = FileAdapter(str(path))
        stream = adapter.envelopes()
        first = [next(stream), next(stream)]
        stream.close()  # the source dies mid-fetch
        rest = list(adapter.envelopes(resume_from=adapter.resume_position()))
        seqs = [e["seq"] for e in first + rest]
        assert seqs == [1, 2, 3, 4, 5]  # no loss, no duplicates
        ids = [json.loads(e["raw"])["id"] for e in first + rest]
        assert ids == [1, 2, 3, 4, 5]

    def test_file_adapter_accepts_int_line_watermark(self, tmp_path):
        # A durable checkpoint may only hold a seq (line) watermark; the
        # adapter accepts it and scan-skips its own range.
        path = tmp_path / "data.ndjson"
        path.write_text("".join(f'{{"id": {i}}}\n' for i in range(1, 6)))
        adapter = FileAdapter(str(path))
        rest = list(adapter.envelopes(resume_from=3))
        assert [e["seq"] for e in rest] == [4, 5]

    def test_file_adapter_blank_lines_keep_line_number_cursor(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text('{"id": 1}\n\n{"id": 2}\n')
        adapter = FileAdapter(str(path))
        stream = adapter.envelopes()
        next(stream)
        next(stream)  # skips the blank line internally
        assert adapter.resume_position() == (3, 21)
        stream.close()
        assert list(adapter.envelopes(resume_from=3)) == []
        assert list(adapter.envelopes(resume_from=(3, 21))) == []

    def test_queue_adapter_cursor_is_max_delivered_seq(self):
        adapter = QueueAdapter()
        adapter.send_many(["a", "b", "c"])
        stream = adapter.envelopes()
        next(stream)
        assert adapter.resume_position() == 0
        # undrawn records survive in the queue: a re-open continues them
        # with monotonically continuing seq numbers
        adapter.end()
        rest = list(adapter.envelopes(resume_from=adapter.resume_position()))
        assert [e["seq"] for e in rest] == [1, 2]

    def test_queue_adapter_fresh_instance_skips_replayed_prefix(self):
        # Durable restart: a fresh adapter whose producer replays the
        # stream from the start skips everything at or below the cursor.
        adapter = QueueAdapter()
        adapter.send_many(["a", "b", "c"])
        adapter.end()
        rest = list(adapter.envelopes(resume_from=0))
        assert [(e["seq"], e["raw"]) for e in rest] == [(1, "b"), (2, "c")]

    def test_generator_adapter_cursor_is_max_delivered_seq(self):
        adapter = GeneratorAdapter(["a", "b", "c"])
        stream = adapter.envelopes()
        next(stream)
        next(stream)
        assert adapter.resume_position() == 1
        rest = list(adapter.envelopes(resume_from=adapter.resume_position()))
        assert [e["seq"] for e in rest] == [2]

    def test_generator_adapter_fresh_instance_skips_replayed_prefix(self):
        adapter = GeneratorAdapter(["a", "b", "c"])
        rest = list(adapter.envelopes(resume_from=1))
        assert [(e["seq"], e["raw"]) for e in rest] == [(2, "c")]


class TestFileAdapterSplit:
    def test_split_covers_file_without_overlap(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text("".join(f'{{"id": {i}}}\n' for i in range(1, 11)))
        parts = FileAdapter(str(path)).split(4)
        assert len(parts) == 4
        seqs = []
        for part in parts:
            seqs.extend(e["seq"] for e in part.envelopes())
        assert sorted(seqs) == list(range(1, 11))

    def test_split_partitions_seek_not_scan(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text("".join(f'{{"id": {i}}}\n' for i in range(1, 9)))
        parts = FileAdapter(str(path)).split(2)
        # the second partition opens at its precomputed byte offset
        assert parts[1].start_offset == 40  # four 10-byte lines
        assert parts[1].start_line == 5
        ids = [json.loads(e["raw"])["id"] for e in parts[1].envelopes()]
        assert ids == [5, 6, 7, 8]

    def test_split_more_partitions_than_lines(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text('{"id": 1}\n{"id": 2}\n')
        parts = FileAdapter(str(path)).split(4)
        seqs = [e["seq"] for part in parts for e in part.envelopes()]
        assert seqs == [1, 2]

    def test_split_partition_resume_cursor_round_trips(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text("".join(f'{{"id": {i}}}\n' for i in range(1, 9)))
        part = FileAdapter(str(path)).split(2)[1]
        stream = part.envelopes()
        next(stream)
        stream.close()
        rest = [e["seq"] for e in part.envelopes(resume_from=part.resume_position())]
        assert rest == [6, 7, 8]

    def test_close_idempotent_across_reopens(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text("".join(f'{{"id": {i}}}\n' for i in range(1, 5)))
        adapter = FileAdapter(str(path))
        for _ in range(3):  # supervised crash/re-open cycles
            stream = adapter.envelopes(resume_from=adapter.resume_position())
            next(stream)
            adapter.close()
            adapter.close()  # double-close is a no-op
            assert not adapter.is_open
        rest = [e["seq"] for e in adapter.envelopes(resume_from=adapter.resume_position())]
        assert rest == [4]


class TestDrainAvailable:
    def test_stops_at_first_idle(self):
        adapter = QueueAdapter()
        adapter.send_many(["a", "b"])
        got = drain_available(adapter)
        assert [e["raw"] for e in got] == ["a", "b"]

    def test_drains_ended_stream_fully(self):
        adapter = QueueAdapter()
        adapter.send("a")
        adapter.end()
        assert len(drain_available(adapter)) == 1
