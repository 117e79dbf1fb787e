"""Reference update clients (the §7.3 machinery)."""

import itertools

import pytest

from repro.ingestion import ReferenceUpdateClient


def make_client(rate, applied):
    source = ({"id": i} for i in itertools.count())
    return ReferenceUpdateClient(rate, source, applied.append)


class TestReferenceUpdateClient:
    def test_rate_times_elapsed(self):
        applied = []
        client = make_client(10.0, applied)
        assert client.advance(1.0) == 10
        assert len(applied) == 10

    def test_fractional_carryover(self):
        applied = []
        client = make_client(1.0, applied)
        for _ in range(4):
            client.advance(0.3)
        assert len(applied) == 1  # 1.2 accumulated
        client.advance(0.9)
        assert len(applied) == 2

    def test_zero_rate_never_fires(self):
        applied = []
        client = make_client(0.0, applied)
        assert client.advance(100.0) == 0
        assert applied == []

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ReferenceUpdateClient(-1, iter([]), lambda r: None)

    def test_exhausted_source_stops_quietly(self):
        applied = []
        client = ReferenceUpdateClient(10.0, iter([{"id": 1}]), applied.append)
        assert client.advance(1.0) == 1
        assert client.advance(1.0) == 0

    def test_exhaustion_is_surfaced_and_stops_activity(self):
        """Regression: exhaustion used to silently zero ``_carry`` while
        still accepting ``advance`` calls as if updates kept flowing."""
        applied = []
        client = ReferenceUpdateClient(10.0, iter([{"id": 1}]), applied.append)
        assert not client.exhausted
        client.advance(1.0)
        assert client.exhausted
        # Subsequent advances are no-ops: no carry accumulates, nothing
        # fires, the applied counter stays frozen.
        assert client.advance(5.0) == 0
        assert client._carry == 0.0
        assert client.applied == 1
        assert applied == [{"id": 1}]

    def test_unexhausted_client_not_flagged(self):
        client = make_client(1.0, [])
        client.advance(10.0)
        assert not client.exhausted

    def test_applied_counter(self):
        client = make_client(5.0, [])
        client.advance(2.0)
        assert client.applied == 10

    def test_updates_activate_lsm_memtable(self):
        from repro.adm import open_type
        from repro.storage import Dataset

        ds = Dataset("R", open_type("T", id="int64"), "id", validate=False)
        ds.insert({"id": 1, "v": 0})
        ds.flush_all()
        assert not ds.update_activity
        client = ReferenceUpdateClient(
            1.0, iter([{"id": 1, "v": 1}]), ds.upsert
        )
        client.advance(1.0)
        assert ds.update_activity  # the §7.3 in-memory component effect
