"""The Primary feed: checkpoint shipping and LSN-addressed fetches."""

from __future__ import annotations

import pytest

from repro.exceptions import ReplicationError
from repro.replication import Primary
from repro.replication.feed import decode_feed_frame
from repro.store import write_epoch
from repro.store.checkpoint import latest_checkpoint

from tests.replication.conftest import commit_inserts, make_primary


class TestConstruction:
    def test_needs_exactly_one_source(self, store_dir):
        with pytest.raises(ReplicationError):
            Primary()
        service = make_primary(store_dir)
        with pytest.raises(ReplicationError):
            Primary(store_dir=store_dir, service=service)
        service.close()


class TestFetch:
    def test_ships_records_past_the_lsn(self, store_dir):
        service = make_primary(store_dir)
        commit_inserts(service, 5)
        feed = Primary(service=service)
        frame = decode_feed_frame(feed.fetch(since_lsn=2))
        assert [lsn for lsn, _ in frame.records] == [3, 4, 5]
        assert frame.last_lsn == 5
        assert frame.epoch == 0
        service.close()

    def test_max_records_caps_and_resumes(self, store_dir):
        service = make_primary(store_dir)
        commit_inserts(service, 6)
        feed = Primary(service=service)
        first = decode_feed_frame(feed.fetch(0, max_records=4))
        assert [lsn for lsn, _ in first.records] == [1, 2, 3, 4]
        # last_lsn says there is more; asking again from the frame's end
        # yields exactly the rest — the feed is a pure function of LSN
        assert first.last_lsn == 6
        rest = decode_feed_frame(feed.fetch(first.records[-1][0], max_records=4))
        assert [lsn for lsn, _ in rest.records] == [5, 6]
        with pytest.raises(ReplicationError):
            feed.fetch(0, max_records=0)
        service.close()

    def test_caught_up_fetch_is_empty(self, store_dir):
        service = make_primary(store_dir)
        commit_inserts(service, 3)
        feed = Primary(service=service)
        frame = decode_feed_frame(feed.fetch(3))
        assert frame.records == []
        assert frame.last_lsn == 3
        # and past the end: still empty, still no error
        assert decode_feed_frame(feed.fetch(42)).records == []
        service.close()

    def test_dead_directory_feed_answers_identically(self, store_dir):
        """Failover's drain path: the feed is a pure function of the
        directory, with or without a live service attached."""
        service = make_primary(store_dir)
        commit_inserts(service, 4)
        live = Primary(service=service).fetch(1)
        service.wal.close()  # the primary "dies"
        dead = Primary(store_dir=store_dir).fetch(1)
        assert live == dead
        service.close(checkpoint=False)

    def test_epoch_is_reread_per_fetch(self, store_dir):
        service = make_primary(store_dir)
        commit_inserts(service, 1)
        feed = Primary(service=service)
        assert decode_feed_frame(feed.fetch(0)).epoch == 0
        write_epoch(store_dir, 3)
        assert decode_feed_frame(feed.fetch(0)).epoch == 3
        service.close(checkpoint=False)


class TestCheckpointShipping:
    def test_ships_the_newest_checkpoint_bytes(self, store_dir):
        service = make_primary(store_dir)
        commit_inserts(service, 3)
        service.checkpoint()
        feed = Primary(service=service)
        ckpt = latest_checkpoint(store_dir)
        with open(ckpt.path, "rb") as fp:
            assert feed.checkpoint_bytes() == fp.read()
        service.close()

    def test_no_checkpoint_raises(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ReplicationError):
            Primary(store_dir=str(empty)).checkpoint_bytes()
