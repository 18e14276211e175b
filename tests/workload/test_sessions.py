"""Unit tests for the closed-loop test driver (tests/workload/sessions.py)."""

from __future__ import annotations

import pytest

from repro.service import IndexService, ServiceConfig
from repro.workload.queries import QueryWorkload
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import XMarkConfig, generate_xmark

from tests.workload.sessions import ClosedLoopDriver, DriverReport, SessionMix

CONFIG = XMarkConfig(
    num_items=30, num_persons=40, num_open_auctions=25,
    num_closed_auctions=15, num_categories=8,
)


def build_driver(steps=120, seed=5, **config):
    graph = generate_xmark(CONFIG).graph
    updates = MixedUpdateWorkload.prepare(graph, seed=seed)
    service = IndexService(graph, ServiceConfig(batch_max_ops=8, **config))
    queries = QueryWorkload.generate(graph, count=10, seed=seed + 1)
    return ClosedLoopDriver(
        service, updates, queries, SessionMix(steps=steps, seed=seed + 2)
    )


class TestSessionMix:
    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            SessionMix(steps=0)

    def test_rejects_negative_sessions(self):
        with pytest.raises(ValueError):
            SessionMix(query_sessions=-1)

    def test_rejects_empty_roster(self):
        with pytest.raises(ValueError):
            SessionMix(query_sessions=0, update_sessions=0)


class TestClosedLoopDriver:
    def test_roster_split_and_counts(self):
        driver = build_driver(steps=120)
        report = driver.run()
        driver.service.close()
        # 3 query : 1 update roster over 120 steps
        assert report.steps == 120
        assert report.queries == 90
        assert report.updates_submitted == 30
        assert report.updates_shed == 0
        assert report.wall_seconds > 0
        assert report.queries_per_second > 0
        assert report.updates_per_second > 0

    def test_run_ends_quiescent_and_consistent(self):
        driver = build_driver(steps=80)
        report = driver.run()
        assert driver.service.queue_depth() == 0
        assert report.versions_published == report.batches > 0
        assert len(report.queries_per_version) == report.versions_published
        assert report.mean_queries_per_version > 0
        assert report.max_queries_per_version >= report.mean_queries_per_version
        driver.service.check()
        driver.service.close()

    def test_operation_sequence_is_deterministic(self):
        a = build_driver(steps=100, seed=7).run()
        b = build_driver(steps=100, seed=7).run()
        assert a.queries == b.queries
        assert a.updates_submitted == b.updates_submitted
        assert a.batches == b.batches
        assert a.queries_per_version == b.queries_per_version

    def test_on_commit_sees_every_batch(self):
        committed = []
        driver = build_driver(steps=100)
        driver.on_commit = committed.append
        report = driver.run()
        driver.service.close()
        assert len(committed) == report.batches
        assert [r.version for r in committed] == list(range(1, report.batches + 1))

    def test_flush_high_water_paces_earlier(self):
        graph = generate_xmark(CONFIG).graph
        updates = MixedUpdateWorkload.prepare(graph, seed=5)
        service = IndexService(graph, ServiceConfig(batch_max_ops=32))
        queries = QueryWorkload.generate(graph, count=10, seed=6)
        driver = ClosedLoopDriver(
            service,
            updates,
            queries,
            SessionMix(steps=80, seed=7, flush_high_water=4),
        )
        report = driver.run()
        service.close()
        # 20 updates at high-water 4 force at least 5 paced batches
        assert report.batches >= 5


class TestDriverReport:
    def test_zero_division_guards(self):
        report = DriverReport()
        assert report.queries_per_second == 0.0
        assert report.updates_per_second == 0.0
        assert report.mean_queries_per_version == 0.0
        assert report.max_queries_per_version == 0
