"""A durable IndexService: the logged commit protocol, end to end."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.exceptions import InjectedFaultError, StoreError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.graph.serialize import graph_from_dict
from repro.obs import observed
from repro.resilience.faults import FaultInjector
from repro.resilience.guard import GuardConfig
from repro.service import IndexService, ServiceConfig, Update
from repro.store import StoreConfig, list_segments, recover
from repro.store.checkpoint import list_checkpoints

from tests.store.conftest import (
    family_fingerprint,
    graph_fingerprint,
    index_fingerprint,
    tiny_graph,
)


def _graph(store_graph_dict) -> DataGraph:
    return graph_from_dict(json.loads(json.dumps(store_graph_dict)))


def _config(family: str = "one", **overrides) -> ServiceConfig:
    defaults = dict(
        family=family,
        k=2,
        batch_max_ops=4,
        queue_capacity=0,
        guard=GuardConfig(policy="raise", check_level=""),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


VOLATILE = StoreConfig(fsync="off", checkpoint_every_records=0)


def _dir_bytes(directory: str) -> dict[str, bytes]:
    """Every file in *directory* mapped to its exact contents."""
    contents = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fp:
            contents[name] = fp.read()
    return contents


class TestStoreConfig:
    def test_validation(self):
        with pytest.raises(StoreError):
            StoreConfig(fsync="perhaps")
        with pytest.raises(StoreError):
            StoreConfig(checkpoint_every_records=-1)
        with pytest.raises(StoreError):
            StoreConfig(keep_checkpoints=0)


class TestCommitProtocol:
    def test_fresh_store_writes_checkpoint_zero(self, store_dir):
        service = IndexService(tiny_graph(), store_dir=store_dir, store_config=VOLATILE)
        assert len(list_checkpoints(store_dir)) == 1
        assert service.version == 0
        service.close(checkpoint=False)
        # recoverable before any commit
        assert recover(store_dir).version == 0

    def test_reopening_initialised_store_raises(self, store_dir):
        IndexService(tiny_graph(), store_dir=store_dir, store_config=VOLATILE).close()
        with pytest.raises(StoreError):
            IndexService(tiny_graph(), store_dir=store_dir, store_config=VOLATILE)

    def test_reopen_refusal_leaves_store_untouched(self, store_dir):
        graph = tiny_graph()
        root = min(graph.nodes())
        service = IndexService(graph, _config(), store_dir=store_dir, store_config=VOLATILE)
        service.submit_nowait(Update.insert_node(root, "kept", 0))
        service.flush()
        service.wal.close()  # unclean shutdown: one un-checkpointed record
        # tear the WAL tail, as a crash would
        segment = os.path.join(store_dir, list_segments(store_dir)[-1])
        with open(segment, "rb+") as fp:
            fp.truncate(os.path.getsize(segment) - 1)
        before = _dir_bytes(store_dir)
        with pytest.raises(StoreError):
            IndexService(tiny_graph(), store_dir=store_dir, store_config=VOLATILE)
        # the refusal must not repair the tail, write a checkpoint, or
        # leave any other byte of the store changed
        assert _dir_bytes(store_dir) == before
        # and recover() still reopens it (repairing the tail then)
        recovered = IndexService.recover(
            store_dir, config=_config(), store_config=VOLATILE
        )
        assert recovered.version == 1
        recovered.close(checkpoint=False)

    def test_every_commit_logs_one_record(self, store_dir, store_graph_dict):
        graph = _graph(store_graph_dict)
        nodes = sorted(graph.nodes())
        service = IndexService(graph, _config(), store_dir=store_dir, store_config=VOLATILE)
        for i in range(3):
            service.submit_nowait(Update.insert_node(nodes[0], "logged", i))
            service.flush()
        assert service.version == 3
        assert service.wal.last_lsn == 3
        assert [r.lsn for r in service.wal.records()] == [1, 2, 3]
        service.close(checkpoint=False)

    def test_base_recover_alias_round_trips(self, store_dir, store_graph_dict):
        graph = _graph(store_graph_dict)
        nodes = sorted(graph.nodes())
        service = IndexService(graph, _config(), store_dir=store_dir, store_config=VOLATILE)
        service.submit_nowait(Update.insert_node(nodes[0], "kept", "v"))
        service.flush()
        expected = (
            graph_fingerprint(service.graph),
            index_fingerprint(service.guarded.index),
            service.version,
        )
        service.close()  # clean close: final checkpoint

        recovered = IndexService.recover(store_dir, store_config=VOLATILE)
        # recover lives on the base class: what comes back is a service
        # with a store part, whatever name it was first built under
        assert recovered.store is not None and recovered.wal.last_lsn == 1
        assert (
            graph_fingerprint(recovered.graph),
            index_fingerprint(recovered.guarded.index),
            recovered.version,
        ) == expected
        assert recovered.recovery.replayed_records == 0  # pure checkpoint load
        recovered.close(checkpoint=False)

    def test_empty_coalesced_batch_keeps_version_lsn_lockstep(self, store_dir):
        graph = tiny_graph()
        root = min(graph.nodes())
        leaf = max(graph.nodes())
        service = IndexService(
            graph, _config(coalesce=True), store_dir=store_dir, store_config=VOLATILE
        )
        # a cancelling pair coalesces to nothing, but still publishes a
        # version — so it must still log an (empty) record
        service.submit_nowait(Update.insert_edge(leaf, root, EdgeKind.IDREF))
        service.submit_nowait(Update.delete_edge(leaf, root))
        service.flush()
        assert service.version == 1
        records = list(service.wal.records())
        assert [r.lsn for r in records] == [1]
        assert records[0].ops == []
        service.close(checkpoint=False)
        result = recover(store_dir)
        assert result.version == 1
        assert result.replayed_records == 1 and result.replayed_ops == 0

    def test_node_and_subgraph_ops_replay_identically(self, store_dir):
        graph = tiny_graph()
        root = min(graph.nodes())
        sub = DataGraph()
        # explicit oids disjoint from the host graph's
        sub_root = sub.add_node("wing", oid=100)
        sub_leaf = sub.add_node("feather", oid=101)
        sub.add_edge(sub_root, sub_leaf)
        service = IndexService(graph, _config(), store_dir=store_dir, store_config=VOLATILE)
        service.submit_nowait(Update.insert_node(root, "twig", None))
        service.flush()
        service.submit_nowait(Update.add_subgraph(sub, sub_root, ((root, sub_root),)))
        service.flush()
        twig = max(service.graph.nodes())  # newest oid from the subgraph
        service.submit_nowait(Update.delete_subgraph(twig))
        service.flush()
        expected = (graph_fingerprint(service.graph), service.version)
        service.close(checkpoint=False)
        result = recover(store_dir)  # replays all three records
        assert result.replayed_records == 3
        assert (graph_fingerprint(result.graph), result.version) == expected


class TestIoFaultMidCommit:
    def test_failed_commit_is_unpublished_and_recoverable(self, store_dir):
        graph = tiny_graph()
        root = min(graph.nodes())
        # io calls: checkpoint 0 takes 2 (write + rename), then one WAL
        # append per commit (fsync off) — io 4 is commit 2's append
        injector = FaultInjector(at_io=4)
        service = IndexService(
            graph, _config(), store_dir=store_dir, store_config=VOLATILE, fault_injector=injector
        )
        service.submit_nowait(Update.insert_node(root, "good", 1))
        service.flush()
        published = (graph_fingerprint(service.graph), service.version)

        service.submit_nowait(Update.insert_node(root, "doomed", 2))
        with pytest.raises(InjectedFaultError):
            service.flush()
        # nothing was published: readers still see version 1
        assert service.version == 1
        # and nothing ever will be: the live pair is ahead of the log
        for write in (
            lambda: service.submit(Update.insert_node(root, "late", 3)),
            lambda: service.submit_nowait(Update.insert_node(root, "late", 3)),
            service.flush,
            service.checkpoint,
        ):
            with pytest.raises(StoreError, match="InjectedFaultError.*recover from the store"):
                write()
        assert "InjectedFaultError" in service.health()["diverged"]
        assert service.query("//good").version == service.version == 1
        service.close(checkpoint=False)
        assert service.wal._fp is None

        # recovery reconstructs exactly the last *published* state
        result = recover(store_dir)
        assert (graph_fingerprint(result.graph), result.version) == published


class TestCheckpointCadence:
    def test_auto_checkpoint_truncates_wal(self, store_dir):
        graph = tiny_graph()
        root = min(graph.nodes())
        service = IndexService(
            graph,
            _config(),
            store_dir=store_dir,
            store_config=StoreConfig(fsync="off", checkpoint_every_records=2),
        )
        for i in range(5):
            service.submit_nowait(Update.insert_node(root, "leafy", i))
            service.flush()
        # checkpoint 0, then cadence after commits 2 and 4
        assert service.checkpointer.checkpoints_written == 3
        # only the tail survives in the log
        assert [r.lsn for r in service.wal.records()] == [5]
        expected = (graph_fingerprint(service.graph), service.version)
        service.close(checkpoint=False)
        result = recover(store_dir)
        assert result.checkpoint_lsn == 4 and result.replayed_records == 1
        assert (graph_fingerprint(result.graph), result.version) == expected

    def test_recover_resumes_cadence_counter(self, store_dir):
        graph = tiny_graph()
        root = min(graph.nodes())
        cadence = StoreConfig(fsync="off", checkpoint_every_records=3)
        service = IndexService(graph, _config(), store_dir=store_dir, store_config=cadence)
        service.submit_nowait(Update.insert_node(root, "pre", 0))
        service.flush()
        service.wal.close()  # crash: 1 un-checkpointed record

        recovered = IndexService.recover(
            store_dir, config=_config(), store_config=cadence
        )
        assert recovered.checkpointer.records_since_checkpoint == 1
        before = recovered.checkpointer.checkpoints_written
        for i in range(2):  # records 2 and 3 since the checkpoint
            recovered.submit_nowait(Update.insert_node(root, "post", i))
            recovered.flush()
        assert recovered.checkpointer.checkpoints_written == before + 1
        recovered.close(checkpoint=False)

    def test_explicit_checkpoint_serialises_against_writer(self, store_dir):
        # checkpoint() must queue behind the writer lock: snapshotting a
        # mid-apply graph/index against a racing WAL position would
        # produce an inconsistent checkpoint and then truncate segments
        # the published state still needs
        service = IndexService(tiny_graph(), _config(), store_dir=store_dir, store_config=VOLATILE)
        assert service._writer_lock.acquire()  # pose as a mid-commit writer
        finished = threading.Event()
        thread = threading.Thread(
            target=lambda: (service.checkpoint(), finished.set())
        )
        thread.start()
        assert not finished.wait(0.1), "checkpoint ran without the writer lock"
        service._writer_lock.release()
        assert finished.wait(5.0), "checkpoint never acquired the freed lock"
        thread.join()
        service.close(checkpoint=False)


class TestRecoverConfiguration:
    def test_family_always_comes_from_the_store(self, store_dir):
        service = IndexService(
            tiny_graph(), _config(family="ak"), store_dir=store_dir, store_config=VOLATILE
        )
        expected = family_fingerprint(service.guarded.family)
        service.close()
        # the store's structure is served whatever family the caller's
        # config names — and the caller's object is passed through as is
        requested = _config(family="one")
        recovered = IndexService.recover(
            store_dir, config=requested, store_config=VOLATILE
        )
        assert recovered.config is requested and requested.family == "one"
        assert (recovered.structure.kind, recovered.snapshot.kind) == ("ak", "ak")
        assert recovered.health()["family"] == "ak"
        assert family_fingerprint(recovered.structure) == expected
        recovered.close(checkpoint=False)

    def test_recovered_service_rotates_into_existing_log(self, store_dir):
        graph = tiny_graph()
        root = min(graph.nodes())
        service = IndexService(graph, _config(), store_dir=store_dir, store_config=VOLATILE)
        service.submit_nowait(Update.insert_node(root, "a", 0))
        service.flush()
        service.wal.close()

        recovered = IndexService.recover(
            store_dir, config=_config(), store_config=VOLATILE
        )
        recovered.submit_nowait(Update.insert_node(root, "b", 1))
        recovered.flush()
        assert [r.lsn for r in recovered.wal.records()] == [1, 2]
        assert recovered.version == 2
        recovered.close(checkpoint=False)
        assert recover(store_dir).version == 2

    def test_commit_after_recover_from_clean_close_survives(self, store_dir):
        graph = tiny_graph()
        root = min(graph.nodes())
        service = IndexService(graph, _config(), store_dir=store_dir, store_config=VOLATILE)
        service.submit_nowait(Update.insert_node(root, "pre", 0))
        service.flush()
        service.close()  # clean close: checkpoint + WAL truncated to empty

        recovered = IndexService.recover(
            store_dir, config=_config(), store_config=VOLATILE
        )
        assert recovered.version == 1
        recovered.submit_nowait(Update.insert_node(root, "post", 1))
        recovered.flush()
        # the record must continue the LSN sequence past the checkpoint —
        # restarting at 1 would make the next replay skip it as superseded
        assert recovered.wal.last_lsn == 2
        recovered.close(checkpoint=False)
        assert recover(store_dir).version == 2

    def test_store_keeps_segment_files_bounded(self, store_dir):
        graph = tiny_graph()
        root = min(graph.nodes())
        service = IndexService(
            graph,
            _config(),
            store_dir=store_dir,
            store_config=StoreConfig(
                fsync="off", checkpoint_every_records=2, keep_checkpoints=1
            ),
        )
        for i in range(8):
            service.submit_nowait(Update.insert_node(root, "n", i))
            service.flush()
        service.close()
        assert len(list_checkpoints(store_dir)) == 1
        assert len(list_segments(store_dir)) <= 2


class TestObservability:
    def test_store_counters_flow(self, store_dir):
        with observed() as obs:
            graph = tiny_graph()
            root = min(graph.nodes())
            service = IndexService(graph, _config(), store_dir=store_dir, store_config=VOLATILE)
            service.submit_nowait(Update.insert_node(root, "seen", 0))
            service.flush()
            service.close()
            recover(store_dir)
            counters = obs.metrics
            assert counters.counter("store.wal_appends").value == 1
            assert counters.counter("store.checkpoints").value == 2  # 0 + close
            assert counters.counter("store.recoveries").value == 1
            assert counters.counter("store.closes").value == 1
