"""The durable store's telemetry: latency histograms, repair counters,
corruption / recovery events — the signals wired into the live plane."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.exceptions import WalCorruptionError
from repro.index.oneindex import OneIndex
from repro.obs import InMemorySink, observed
from repro.service import IndexService, Update
from repro.store import StoreConfig
from repro.store.checkpoint import prune_checkpoints, write_checkpoint
from repro.store.recovery import recover
from repro.store.wal import WriteAheadLog, list_segments, read_records
from repro.workload.xmark import XMarkConfig, generate_xmark

from tests.store.conftest import tiny_graph


def _ops(n: int) -> list[dict]:
    return [{"op": "delete_node", "args": [n]}]


class TestWalLatencyHistograms:
    def test_append_and_fsync_are_timed(self, store_dir):
        with observed() as obs:
            wal = WriteAheadLog(store_dir, fsync="always")
            for i in range(3):
                wal.append(_ops(i))
            wal.close()
            appends = obs.metrics.histogram("store.wal_append_seconds")
            fsyncs = obs.metrics.histogram("store.fsync_seconds")
            assert appends.count == 3
            assert appends.total > 0
            assert fsyncs.count >= 3

    def test_fsync_off_records_no_fsync_latency(self, store_dir):
        with observed() as obs:
            wal = WriteAheadLog(store_dir, fsync="off")
            wal.append(_ops(0))
            wal.close()
            assert obs.metrics.histogram("store.wal_append_seconds").count == 1
            assert obs.metrics.histogram("store.fsync_seconds").count == 0


class TestTailRepairTelemetry:
    def _torn_segment(self, store_dir) -> str:
        wal = WriteAheadLog(store_dir, fsync="off")
        for i in range(3):
            wal.append(_ops(i))
        wal.close()
        path = os.path.join(store_dir, list_segments(store_dir)[0])
        with open(path, "rb") as fp:
            data = fp.read()
        with open(path, "wb") as fp:
            fp.write(data[: len(data) - 5])  # tear the last record
        return path

    def test_repair_emits_counter_and_event(self, store_dir):
        self._torn_segment(store_dir)
        sink = InMemorySink()
        with observed(sink) as obs:
            records = read_records(store_dir, repair=True)
            assert [r.lsn for r in records] == [1, 2]
            assert obs.metrics.counter("store.wal_tail_repairs").value == 1
        (event,) = sink.events("store.wal_tail_repaired")
        assert event["attrs"]["valid_bytes"] > 0
        assert event["attrs"]["reason"]

    def test_read_without_repair_does_not_count_a_repair(self, store_dir):
        self._torn_segment(store_dir)
        with observed() as obs:
            read_records(store_dir, repair=False)
            assert obs.metrics.counter("store.wal_tail_repairs").value == 0


class TestCorruptionTelemetry:
    def test_mid_log_corruption_emits_event_before_raising(self, store_dir):
        wal = WriteAheadLog(store_dir, fsync="off")
        for i in range(3):
            wal.append(_ops(i))
        wal.close()
        path = os.path.join(store_dir, list_segments(store_dir)[0])
        with open(path, "rb") as fp:
            lines = fp.read().splitlines(keepends=True)
        # flip one payload byte inside record 2: CRC mismatch mid-log,
        # with a well-formed record following — corruption, not a tear
        corrupt = bytearray(lines[1])
        corrupt[len(corrupt) // 2] ^= 0x01
        with open(path, "wb") as fp:
            fp.write(lines[0] + bytes(corrupt) + lines[2])
        sink = InMemorySink()
        with observed(sink):
            with pytest.raises(WalCorruptionError):
                read_records(store_dir)
        (event,) = sink.events("store.wal_corruption")
        assert event["attrs"]["segment"]
        assert event["attrs"]["valid_bytes"] >= 0


class TestCheckpointTelemetry:
    def test_write_and_prune_durations(self, store_dir):
        graph = tiny_graph()
        index = OneIndex.build(graph)
        with observed() as obs:
            for lsn in (1, 2, 3):
                write_checkpoint(
                    store_dir, graph, index, wal_lsn=lsn, version=lsn
                )
            removed = prune_checkpoints(store_dir, keep=1)
            assert removed == 2
            assert obs.metrics.histogram("store.checkpoint_write_seconds").count == 3
            assert obs.metrics.histogram("store.checkpoint_prune_seconds").count == 1
            assert obs.metrics.counter("store.checkpoints_pruned").value == 2

    def test_the_write_histogram_and_span_cover_the_encoding(self, store_dir):
        # On a few thousand dnodes formatting the document is most of the
        # call; a timer started after it reported a tenth of the stall.
        graph = generate_xmark(
            XMarkConfig(
                num_items=120,
                num_persons=150,
                num_open_auctions=80,
                num_closed_auctions=50,
                num_categories=20,
            )
        ).graph
        index = OneIndex.build(graph)
        sink = InMemorySink()
        with observed(sink) as obs:
            started = time.perf_counter()
            path = write_checkpoint(store_dir, graph, index, wal_lsn=1, version=1)
            wall = time.perf_counter() - started
            histogram = obs.metrics.histogram("store.checkpoint_write_seconds")
        assert histogram.count == 1
        assert wall / 2 <= histogram.total <= wall
        (span,) = sink.spans("store.checkpoint")
        assert span["attrs"]["bytes"] == os.path.getsize(path)
        assert span["dur_ms"] >= wall * 1e3 / 2


    def test_health_and_a_counter_tell_a_cold_checkpoint_from_an_incremental_one(
        self, store_dir
    ):
        graph = generate_xmark(
            XMarkConfig(
                num_items=120,
                num_persons=150,
                num_open_auctions=80,
                num_closed_auctions=50,
                num_categories=20,
            )
        ).graph
        config = StoreConfig(fsync="off", checkpoint_every_records=0)
        sink = InMemorySink()
        with observed(sink) as obs:
            service = IndexService(graph, store_dir=store_dir, store_config=config)
            rendered, held = service.health()["store"]["last_checkpoint_pages"]
            assert rendered == held > 4  # checkpoint 0 renders every page
            cold = obs.metrics.counter("store.checkpoint_pages_rendered").value
            assert cold == held
            leaf = next(oid for oid in service.graph.nodes() if not service.graph.out_degree(oid))
            service.submit(Update.set_value(leaf, "changed"))
            service.flush()
            service.checkpoint()
            # one graph page, no structure page (a value is index-neutral)
            assert service.health()["store"]["last_checkpoint_pages"] == (1, held)
            assert obs.metrics.counter("store.checkpoint_pages_rendered").value == cold + 1
            spans = sink.spans("store.checkpoint")
            assert [(s["attrs"]["pages_rendered"], s["attrs"]["pages"]) for s in spans] == [
                (held, held),
                (1, held),
            ]
            service.close(checkpoint=False)
        recovered = IndexService.recover(store_dir, store_config=config)
        assert recovered.health()["store"]["last_checkpoint_pages"] is None
        recovered.checkpoint()  # the first after a recovery renders every page
        assert recovered.health()["store"]["last_checkpoint_pages"] == (held, held)
        recovered.close(checkpoint=False)


class TestRecoveryTelemetry:
    def test_recover_times_and_announces_itself(self, store_dir):
        graph = tiny_graph()
        index = OneIndex.build(graph)
        write_checkpoint(store_dir, graph, index, wal_lsn=0, version=0)
        wal = WriteAheadLog(store_dir, fsync="off")
        root = min(graph.nodes())
        wal.append([{"op": "insert_node", "args": [root, "y", None]}])
        wal.close()
        sink = InMemorySink()
        with observed(sink) as obs:
            result = recover(store_dir)
            assert result.replayed_records == 1
            histogram = obs.metrics.histogram("store.recovery_seconds")
            assert histogram.count == 1
        (event,) = sink.events("store.recovered")
        assert event["attrs"]["replayed_records"] == 1
        assert event["attrs"]["last_lsn"] == 1
        assert event["attrs"]["seconds"] >= 0
        json.dumps(event["attrs"])  # event payload must be JSON-able
