"""Unit tests for IndexService: versioning, admission, writer discipline."""

from __future__ import annotations

import time

import pytest

from repro.exceptions import (
    InjectedFaultError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
)
from repro.graph.datagraph import EdgeKind
from repro.obs import observed
from repro.resilience.faults import FaultInjector
from repro.resilience.guard import GuardConfig
from repro.service import BatchResult, IndexService, ServiceConfig, Update
from repro.workload.random_graphs import candidate_edges
from repro.workload.updates import MixedUpdateWorkload

import random


def idref_ops(graph, count: int, seed: int = 3) -> list[Update]:
    """Insertable IDREF-edge updates over currently-absent edges."""
    pairs = candidate_edges(graph, random.Random(seed), count, acyclic=False)
    assert len(pairs) == count
    return [Update.insert_edge(u, v, EdgeKind.IDREF) for u, v in pairs]


class TestConfig:
    def test_rejects_unknown_family(self):
        with pytest.raises(ServiceError):
            ServiceConfig(family="two")

    def test_rejects_unknown_admission(self):
        with pytest.raises(ServiceError):
            ServiceConfig(admission="drop")

    def test_rejects_non_positive_batch(self):
        with pytest.raises(ServiceError):
            ServiceConfig(batch_max_ops=0)


class TestVersioning:
    def test_version_zero_published_at_construction(self, xmark_graph):
        service = IndexService(xmark_graph)
        assert service.version == 0
        answer = service.query("//person")
        assert answer.version == 0
        assert answer.matches

    def test_flush_publishes_next_version(self, xmark_graph):
        service = IndexService(xmark_graph)
        before = service.snapshot
        (update,) = idref_ops(xmark_graph, 1)
        assert service.submit(update)
        assert service.version == 0  # nothing published until the flush
        result = service.flush()
        assert isinstance(result, BatchResult)
        assert result.version == 1 and result.applied == 1
        assert service.version == 1
        # the retired snapshot is still intact and still serves
        assert before.version == 0
        assert before.evaluate("//person").matches

    def test_query_sees_committed_update(self, xmark_graph):
        service = IndexService(xmark_graph)
        (update,) = idref_ops(xmark_graph, 1)
        source, target, _ = update.args
        expression = f"//{xmark_graph.label(source)}/{xmark_graph.label(target)}"
        before = service.query(expression).matches
        service.submit(update)
        service.flush()
        after = service.query(expression).matches
        assert target in after
        assert after >= before

    def test_flush_on_empty_queue_is_none(self, xmark_graph):
        service = IndexService(xmark_graph)
        assert service.flush() is None
        assert service.version == 0

    def test_cancelling_pair_commits_trivially(self, xmark_graph):
        service = IndexService(xmark_graph)
        (update,) = idref_ops(xmark_graph, 1)
        source, target, _ = update.args
        service.submit(update)
        service.submit(Update.delete_edge(source, target))
        result = service.flush()
        assert result.drained == 2 and result.applied == 0
        assert result.coalesced_away == 2
        assert service.version == 1  # the (empty) batch still published
        assert not xmark_graph.has_edge(source, target)

    def test_staleness_accounting(self, xmark_graph):
        with observed() as obs:
            service = IndexService(xmark_graph)
            served = obs.metrics.histogram("service.queries_per_version")
            for _ in range(5):
                service.query("//person")
            (update,) = idref_ops(xmark_graph, 1)
            service.submit(update)
            service.flush()
            assert served.values == [5]
            service.query("//person")
            service.submit(Update.delete_edge(update.args[0], update.args[1]))
            service.flush()
            assert served.values == [5, 1]


class TestAdmission:
    def test_shed_rejects_when_full(self, xmark_graph):
        service = IndexService(
            xmark_graph, ServiceConfig(queue_capacity=2, admission="shed")
        )
        updates = idref_ops(xmark_graph, 3)
        assert service.submit(updates[0])
        assert service.submit(updates[1])
        assert not service.submit(updates[2])
        assert service.stats.shed == 1
        assert service.queue_depth() == 2

    def test_flush_policy_makes_room(self, xmark_graph):
        service = IndexService(
            xmark_graph,
            ServiceConfig(queue_capacity=2, batch_max_ops=2, admission="flush"),
        )
        for update in idref_ops(xmark_graph, 3):
            assert service.submit(update)
        assert service.stats.forced_flushes == 1
        assert service.version == 1
        assert service.queue_depth() == 1

    def test_block_policy_self_drains_without_writer(self, xmark_graph):
        # with no writer thread, a blocked submitter must become the
        # writer itself or it would deadlock
        service = IndexService(
            xmark_graph,
            ServiceConfig(queue_capacity=2, batch_max_ops=2, admission="block"),
        )
        for update in idref_ops(xmark_graph, 3):
            assert service.submit(update)
        assert service.stats.forced_flushes == 1
        assert service.version == 1

    def test_submit_nowait_raises_when_full(self, xmark_graph):
        service = IndexService(xmark_graph, ServiceConfig(queue_capacity=1))
        updates = idref_ops(xmark_graph, 2)
        service.submit_nowait(updates[0])
        with pytest.raises(QueueFullError) as excinfo:
            service.submit_nowait(updates[1])
        assert excinfo.value.capacity == 1


class TestBatchFailure:
    def test_failed_batch_leaves_snapshot_and_graph_intact(self, xmark_graph):
        injector = FaultInjector(at_record=1)  # first journal record
        service = IndexService(
            xmark_graph,
            ServiceConfig(guard=GuardConfig(policy="raise")),
            fault_injector=injector,
        )
        baseline = service.query("//person").matches
        edges_before = xmark_graph.num_edges
        (update,) = idref_ops(xmark_graph, 1)
        service.submit(update)
        with pytest.raises(InjectedFaultError):
            service.flush()
        assert injector.fired == 1
        assert service.stats.batch_failures == 1
        # rollback restored the graph; the published version never moved
        assert service.version == 0
        assert xmark_graph.num_edges == edges_before
        assert service.query("//person").matches == baseline
        service.check()

    def test_degrade_policy_absorbs_the_fault(self, xmark_graph):
        injector = FaultInjector(at_record=1)
        service = IndexService(
            xmark_graph,
            ServiceConfig(guard=GuardConfig(policy="degrade")),
            fault_injector=injector,
        )
        (update,) = idref_ops(xmark_graph, 1)
        service.submit(update)
        result = service.flush()
        assert result.applied == 1 and not result.failed
        assert injector.fired == 1
        assert service.stats.batch_failures == 0
        assert service.guarded.stats.degradations == 1
        assert service.version == 1
        assert xmark_graph.has_edge(update.args[0], update.args[1])
        service.check()


class TestBackgroundWriter:
    def test_writer_thread_commits_submitted_updates(self, xmark_graph):
        service = IndexService(
            xmark_graph, ServiceConfig(batch_max_ops=4, writer_idle_wait=0.01)
        )
        service.start()
        service.start()  # idempotent
        try:
            for update in idref_ops(xmark_graph, 8):
                service.submit(update)
            deadline = time.monotonic() + 10.0
            while service.queue_depth() > 0 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            service.stop()
        assert service.queue_depth() == 0
        assert service.stats.applied_ops == 8
        assert service.version == service.stats.batches >= 2
        service.check()

    def test_close_rejects_further_work(self, xmark_graph):
        service = IndexService(xmark_graph)
        (update,) = idref_ops(xmark_graph, 1)
        service.submit(update)
        service.close()
        assert service.version == 1  # close drained the queue
        with pytest.raises(ServiceClosedError):
            service.submit(update)
        with pytest.raises(ServiceClosedError):
            service.submit_nowait(update)
        with pytest.raises(ServiceClosedError):
            service.start()


class TestMixedWorkloadRun:
    @pytest.mark.parametrize("family", ["one", "ak"])
    def test_drain_and_check_after_mixed_stream(self, xmark_graph, family):
        workload = MixedUpdateWorkload.prepare(xmark_graph, seed=13)
        service = IndexService(
            xmark_graph, ServiceConfig(family=family, k=2, batch_max_ops=16)
        )
        for op, source, target in workload.steps(20, validate=False):
            if op == "insert":
                service.submit(Update.insert_edge(source, target, EdgeKind.IDREF))
            else:
                service.submit(Update.delete_edge(source, target))
        results = service.drain()
        assert sum(r.drained for r in results) == 40
        assert service.version == len(results) + 0
        service.check()
