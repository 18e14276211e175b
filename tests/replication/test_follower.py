"""Followers: bootstrap, catch-up, idempotence, health, stall forensics."""

from __future__ import annotations

import json
import time

import pytest

from repro.exceptions import InjectedFaultError, ReplicationError
from repro.obs import FlightRecorder, InMemorySink, observed
from repro.replication import STALL_SYNCS, FollowerIndexService, Primary, ReplicationLink
from repro.resilience.faults import REPLICATION_FAULTS, FaultInjector
from repro.resilience.guard import GuardConfig
from repro.service import Update
from repro.store import StoreConfig

from tests.replication.conftest import (
    commit_inserts,
    every_fetch_fault,
    make_primary,
    service_config,
)


def bootstrap_follower(service, injector=None, **link_overrides):
    defaults = dict(fault_injector=injector, sleep=lambda _s: None)
    defaults.update(link_overrides)
    link = ReplicationLink(Primary(service=service), **defaults)
    return FollowerIndexService.bootstrap(link)


class TestBootstrapAndCatchUp:
    @pytest.mark.parametrize("family", ["one", "ak"])
    def test_converges_to_the_primary_fingerprint(self, store_dir, family):
        service = make_primary(store_dir, family=family)
        commit_inserts(service, 3)
        service.checkpoint()
        commit_inserts(service, 3, tag="tail")
        follower = bootstrap_follower(service)
        # bootstrapped at the checkpoint: LSN and version in lockstep
        assert follower.applied_lsn == 3
        assert follower.version == 3
        assert follower.structure.kind == follower.snapshot.kind == family
        applied = follower.catch_up()
        assert applied == 3
        assert follower.applied_lsn == service.wal.last_lsn == 6
        assert follower.version == service.version == 6
        assert follower.snapshot.fingerprint() == service.snapshot.fingerprint()
        follower.close()
        service.close()

    @pytest.mark.parametrize("kind", REPLICATION_FAULTS)
    def test_converges_through_every_fault_kind(self, store_dir, kind):
        service = make_primary(store_dir)
        commit_inserts(service, 2)
        service.checkpoint()
        commit_inserts(service, 4, tag="tail")
        follower = bootstrap_follower(
            service,
            FaultInjector(at_replication=2, replication_fault=kind, rearm=True),
        )
        follower.catch_up(max_records=2, deadline_seconds=30.0)
        assert follower.snapshot.fingerprint() == service.snapshot.fingerprint()
        assert follower.link.faults_applied.get(kind), f"{kind} never fired"
        follower.close()
        service.close()

    def test_queries_serve_from_the_local_snapshot(self, store_dir):
        service = make_primary(store_dir)
        commit_inserts(service, 2)
        service.checkpoint()
        follower = bootstrap_follower(service)
        follower.catch_up()
        assert follower.query("//n").matches == service.query("//n").matches
        follower.close()
        service.close()


class TestIdempotence:
    def test_duplicate_delivery_is_a_logged_noop(self, store_dir):
        service = make_primary(store_dir)
        commit_inserts(service, 2)
        service.checkpoint()
        commit_inserts(service, 2, tag="tail")
        injector = FaultInjector(
            at_replication=1, replication_fault="duplicate", rearm=True
        )
        follower = bootstrap_follower(service)
        follower.catch_up()
        before = follower.snapshot.fingerprint()
        version = follower.version
        # re-arm the wire to replay the previous response on every fetch
        follower.link.fault_injector = injector
        assert follower.sync() == 0
        assert follower.duplicates_skipped > 0
        assert follower.version == version
        assert follower.snapshot.fingerprint() == before
        follower.close()
        service.close()

    def test_gap_demands_a_rebootstrap(self, store_dir):
        service = make_primary(store_dir)
        commit_inserts(service, 2)
        service.checkpoint()
        follower = bootstrap_follower(service)
        with pytest.raises(ReplicationError, match="re-bootstrap"):
            follower._apply_record(follower.applied_lsn + 2, [])
        follower.close()
        service.close()

    def test_checkpoint_truncating_the_whole_tail_ends_catch_up(self, store_dir):
        # every commit's cadence checkpoint truncates the record it just
        # logged, before any follower can fetch it
        service = make_primary(
            store_dir,
            store_config=StoreConfig(fsync="always", checkpoint_every_records=1),
        )
        follower = bootstrap_follower(service)
        commit_inserts(service, 1)
        real_sync = follower.sync
        syncs = 0

        def bounded_sync(max_records=64):
            nonlocal syncs
            syncs += 1
            assert syncs <= STALL_SYNCS, "catch_up polls a log that will never ship"
            return real_sync(max_records)

        follower.sync = bounded_sync
        with pytest.raises(ReplicationError, match="re-bootstrap"):
            follower.catch_up()  # no deadline: must terminate on its own
        assert follower.applied_lsn == 0
        follower.close()
        service.close()


class TestCommitTelemetry:
    """A replica's applies go through ``IndexService._commit``, so they
    show up in its own commit counts, spans and failure counts."""

    def test_every_applied_record_is_a_measured_commit(self, store_dir):
        sink = InMemorySink()
        with observed(sink) as obs:
            service = make_primary(store_dir)
            commit_inserts(service, 2)
            service.checkpoint()
            commit_inserts(service, 3, tag="tail")
            follower = bootstrap_follower(service)
            flushes_before = len(sink.spans("service.commit"))
            assert follower.catch_up() == 3
            assert follower.stats.batches == follower.records_applied == 3
            assert follower.stats.applied_ops == 3
            assert follower.stats.coalescing.examined == 0  # applied verbatim
            assert len(sink.spans("service.commit")) == flushes_before + 3
            metrics = obs.metrics.snapshot()
            assert metrics["counters"]["replication.records_applied"] == 3
            # the primary's five commits plus the replica's three
            histograms = metrics["histograms"]
            assert histograms["service.batch_commit_seconds"]["count"] == 8
            assert histograms["replication.apply_seconds"]["count"] == 3
            names = [e["name"] for e in sink.events() if e["name"].startswith("replication.")]
            assert names == ["replication.bootstrap", "replication.batch_applied"]
            follower.close()
            service.close()

    def test_a_failing_record_counts_and_moves_nothing(self, store_dir):
        service = make_primary(store_dir)
        commit_inserts(service, 2)
        service.checkpoint()
        commit_inserts(service, 2, tag="tail")
        link = ReplicationLink(Primary(service=service), sleep=lambda _s: None)
        follower = FollowerIndexService.bootstrap(
            link, service_config(guard=GuardConfig(policy="raise"))
        )
        follower.guarded.fault_injector = FaultInjector(at_record=1)
        before = (follower.applied_lsn, follower.version, follower.snapshot)
        with pytest.raises(InjectedFaultError):
            follower.sync()
        assert follower.stats.batch_failures == 1
        assert (follower.applied_lsn, follower.version, follower.snapshot) == before
        assert follower.records_applied == 0 and follower.stats.batches == 0
        # the fault was one-shot: the same record applies on the retry
        assert follower.catch_up() == 2
        assert follower.snapshot.fingerprint() == service.snapshot.fingerprint()
        follower.close()
        service.close()


class TestReadOnly:
    def test_submit_raises(self, store_dir):
        service = make_primary(store_dir)
        commit_inserts(service, 1)
        service.checkpoint()
        follower = bootstrap_follower(service)
        node = min(follower.graph.nodes())
        with pytest.raises(ReplicationError):
            follower.submit(Update.insert_node(node, "w", 99))
        with pytest.raises(ReplicationError):
            follower.submit_nowait(Update.insert_node(node, "w", 99))
        follower.close()
        service.close()


class TestHealth:
    def test_primary_health_surfaces_log_positions(self, store_dir):
        service = make_primary(store_dir)
        commit_inserts(service, 3)
        doc = service.health()
        assert doc["store"]["last_lsn"] == 3
        assert doc["store"]["durable_lsn"] == 3  # fsync="always"
        assert doc["store"]["epoch"] == 0
        service.close()

    def test_follower_health_surfaces_replication_position(self, store_dir):
        service = make_primary(store_dir)
        commit_inserts(service, 2)
        service.checkpoint()
        commit_inserts(service, 3, tag="tail")
        follower = bootstrap_follower(service)
        follower.sync(max_records=1)
        doc = follower.health()
        replication = doc["replication"]
        assert replication["role"] == "follower"
        assert replication["applied_lsn"] == 3
        assert replication["primary_last_lsn"] == 5
        assert replication["lag_lsns"] == 2
        assert replication["records_applied"] == 1
        assert replication["tailing"] is False
        follower.close()
        service.close()


class TestTailing:
    def test_background_tail_follows_new_commits(self, store_dir):
        service = make_primary(store_dir)
        commit_inserts(service, 2)
        service.checkpoint()
        follower = bootstrap_follower(service)
        follower.start_tailing(poll_interval=0.005)
        follower.start_tailing()  # idempotent
        commit_inserts(service, 4, tag="tail")
        deadline = time.monotonic() + 10.0
        while follower.applied_lsn < service.wal.last_lsn:
            assert time.monotonic() < deadline, "tail never caught up"
            time.sleep(0.01)
        follower.stop_tailing()
        assert follower.snapshot.fingerprint() == service.snapshot.fingerprint()
        assert follower.health()["replication"]["tailing"] is False
        follower.close()
        service.close()


class TestStallForensics:
    def test_stalled_feed_dumps_a_flight_file(self, store_dir, tmp_path):
        """Satellite regression: a stalled feed must leave a post-mortem
        containing the follower's recent apply history."""
        recorder = FlightRecorder(dump_dir=str(tmp_path / "flight"))
        with observed(recorder):
            service = make_primary(store_dir)
            commit_inserts(service, 2)
            service.checkpoint()
            commit_inserts(service, 2, tag="tail")
            follower = bootstrap_follower(service)
            follower.catch_up()  # apply history lands in the ring
            commit_inserts(service, 2, tag="stalled")
            follower.link.fault_injector = every_fetch_fault("stall")
            for _ in range(STALL_SYNCS):
                assert follower.sync() == 0
            assert follower.stalls_detected == 1
            # one report per stall episode, not one per sync
            follower.sync()
            assert follower.stalls_detected == 1
            follower.close()
            service.close()
        dump = recorder.last_dump
        assert dump is not None, "the stall never dumped a flight file"
        document = json.loads(open(dump).read())
        assert document["reason"] == "replication.stall"
        assert document["trigger"]["attrs"]["lag_lsns"] == 2
        names = [r["name"] for r in document["records"] if r["type"] == "event"]
        assert "replication.batch_applied" in names, (
            "the dump must contain the follower's recent apply history"
        )
