"""Checkpoints: round-trips, atomicity under crashes, pruning, cadence."""

from __future__ import annotations

import json
import os

import pytest

from repro.exceptions import CheckpointError, InjectedFaultError
from repro.graph.serialize import graph_from_dict
from repro.index.akindex import AkIndexFamily
from repro.index.oneindex import OneIndex
from repro.resilience.faults import FaultInjector
from repro.store.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpointer,
    checkpoint_lsn,
    checkpoint_name,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    prune_checkpoints,
    write_checkpoint,
)
from repro.store.wal import WriteAheadLog, list_segments

from tests.store.conftest import (
    STORE_XMARK,
    family_fingerprint,
    graph_fingerprint,
    index_fingerprint,
)


@pytest.fixture
def graph(store_graph_dict):
    return graph_from_dict(json.loads(json.dumps(store_graph_dict)))


class TestRoundTrip:
    def test_one_index_round_trip(self, store_dir, graph):
        index = OneIndex.build(graph)
        path = write_checkpoint(store_dir, graph, index, wal_lsn=7, version=7)
        assert os.path.basename(path) == checkpoint_name(7)
        ckpt = load_checkpoint(path)
        assert (ckpt.kind, ckpt.k, ckpt.wal_lsn, ckpt.version) == ("one", 0, 7, 7)
        restored_graph, restored_index = ckpt.materialize()
        assert isinstance(restored_index, OneIndex)
        assert graph_fingerprint(restored_graph) == graph_fingerprint(graph)
        assert index_fingerprint(restored_index) == index_fingerprint(index)

    def test_ak_family_round_trip(self, store_dir, graph):
        family = AkIndexFamily.build(graph, 2)
        path = write_checkpoint(store_dir, graph, family, wal_lsn=3, version=3)
        ckpt = load_checkpoint(path)
        assert (ckpt.kind, ckpt.k) == ("ak", 2)
        restored_graph, restored_family = ckpt.materialize()
        assert isinstance(restored_family, AkIndexFamily)
        assert graph_fingerprint(restored_graph) == graph_fingerprint(graph)
        assert family_fingerprint(restored_family) == family_fingerprint(family)

    def test_exactly_one_of_index_or_family(self, store_dir, graph):
        # one structure, by the signature: there is no pair to get wrong
        index = OneIndex.build(graph)
        family = AkIndexFamily.build(graph, 2)
        with pytest.raises(TypeError):
            write_checkpoint(store_dir, graph, wal_lsn=1, version=1)
        with pytest.raises(TypeError):
            write_checkpoint(store_dir, graph, index, family, wal_lsn=1, version=1)
        assert list_checkpoints(store_dir) == []


class TestAtomicity:
    """A crash at any point of write → fsync → rename never loses the
    previous checkpoint (the satellite-d contract)."""

    def _write_generation(self, store_dir, graph, lsn):
        index = OneIndex.build(graph)
        return write_checkpoint(store_dir, graph, index, wal_lsn=lsn, version=lsn)

    def test_crash_before_tmp_write(self, store_dir, graph):
        self._write_generation(store_dir, graph, 1)
        injector = FaultInjector(at_io=1)
        index = OneIndex.build(graph)
        with pytest.raises(InjectedFaultError):
            write_checkpoint(
                store_dir, graph, index, wal_lsn=2, version=2,
                fault_injector=injector,
            )
        ckpt = latest_checkpoint(store_dir)
        assert ckpt.wal_lsn == 1

    def test_crash_between_tmp_write_and_rename(self, store_dir, graph):
        self._write_generation(store_dir, graph, 1)
        injector = FaultInjector(at_io=2)  # 1st io = tmp write, 2nd = rename
        index = OneIndex.build(graph)
        with pytest.raises(InjectedFaultError):
            write_checkpoint(
                store_dir, graph, index, wal_lsn=2, version=2,
                fault_injector=injector,
            )
        # the tmp file exists but is invisible to selection
        assert any(name.endswith(".tmp") for name in os.listdir(store_dir))
        assert list_checkpoints(store_dir) == [checkpoint_name(1)]
        ckpt = latest_checkpoint(store_dir)
        assert ckpt is not None and ckpt.wal_lsn == 1
        # the previous checkpoint still materialises
        restored_graph, _ = ckpt.materialize()
        assert graph_fingerprint(restored_graph) == graph_fingerprint(graph)

    def test_torn_final_checkpoint_falls_back(self, store_dir, graph):
        self._write_generation(store_dir, graph, 1)
        newest = self._write_generation(store_dir, graph, 2)
        size = os.path.getsize(newest)
        with open(newest, "rb+") as fp:
            fp.truncate(size // 2)
        ckpt = latest_checkpoint(store_dir)
        assert ckpt.wal_lsn == 1

    def test_bitflipped_checkpoint_falls_back(self, store_dir, graph):
        self._write_generation(store_dir, graph, 1)
        newest = self._write_generation(store_dir, graph, 2)
        with open(newest, "r+") as fp:
            document = fp.read()
            fp.seek(0)
            fp.write(document.replace('"wal_lsn": 2', '"wal_lsn": 9', 1)
                     .replace('"wal_lsn":2', '"wal_lsn":9', 1))
        ckpt = latest_checkpoint(store_dir)
        assert ckpt.wal_lsn == 1

    def test_no_checkpoint_at_all(self, store_dir):
        assert latest_checkpoint(store_dir) is None


class TestHardening:
    def test_missing_file(self, store_dir):
        with pytest.raises(CheckpointError):
            load_checkpoint(os.path.join(store_dir, checkpoint_name(1)))

    def test_not_json(self, store_dir):
        path = os.path.join(store_dir, checkpoint_name(1))
        with open(path, "w") as fp:
            fp.write("not json at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_future_format_version_rejected(self, store_dir, graph):
        index = OneIndex.build(graph)
        path = write_checkpoint(store_dir, graph, index, wal_lsn=1, version=1)
        with open(path) as fp:
            document = json.load(fp)
        document["data"]["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        import zlib

        payload = json.dumps(document["data"], sort_keys=True, separators=(",", ":"))
        with open(path, "w") as fp:
            fp.write('{"crc": %d, "data": %s}' % (zlib.crc32(payload.encode()), payload))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert "newer" in str(excinfo.value)

    def test_unknown_kind_rejected(self, store_dir, graph):
        index = OneIndex.build(graph)
        path = write_checkpoint(store_dir, graph, index, wal_lsn=1, version=1)
        with open(path) as fp:
            document = json.load(fp)
        document["data"]["kind"] = "btree"
        import zlib

        payload = json.dumps(document["data"], sort_keys=True, separators=(",", ":"))
        with open(path, "w") as fp:
            fp.write('{"crc": %d, "data": %s}' % (zlib.crc32(payload.encode()), payload))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestPruning:
    def test_prune_keeps_newest(self, store_dir, graph):
        index = OneIndex.build(graph)
        for lsn in (1, 2, 3, 4):
            write_checkpoint(store_dir, graph, index, wal_lsn=lsn, version=lsn)
        removed = prune_checkpoints(store_dir, keep=2)
        assert removed == 2
        assert [checkpoint_lsn(n) for n in list_checkpoints(store_dir)] == [3, 4]
        with pytest.raises(CheckpointError):
            prune_checkpoints(store_dir, keep=0)


class TestCheckpointer:
    def test_cadence_and_wal_truncation(self, store_dir, graph):
        index = OneIndex.build(graph)
        wal = WriteAheadLog(store_dir, fsync="off", segment_max_bytes=1)
        checkpointer = Checkpointer(store_dir, wal, every_records=2, keep=2)
        due = []
        for i in range(4):
            wal.append([{"op": "delete_node", "args": [i]}])
            if checkpointer.note_record():
                checkpointer.checkpoint(graph, index, version=wal.last_lsn)
                due.append(wal.last_lsn)
        assert due == [2, 4]
        assert checkpointer.checkpoints_written == 2
        # the WAL was truncated behind the newest checkpoint
        remaining = [r.lsn for r in wal.records()]
        assert remaining == []
        # superseded segments are actually gone from disk
        assert len(list_segments(store_dir)) == 1
        wal.close()
        ckpt = latest_checkpoint(store_dir)
        assert ckpt.wal_lsn == 4

    def test_zero_cadence_disables_auto(self, store_dir):
        wal = WriteAheadLog(store_dir, fsync="off")
        checkpointer = Checkpointer(store_dir, wal, every_records=0)
        for i in range(10):
            wal.append([])
            assert not checkpointer.note_record()
        wal.close()
