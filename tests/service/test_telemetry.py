"""End-to-end telemetry over a serving process.

The acceptance story for the live plane: a background-writer
``IndexService`` serves ``/metrics`` and ``/health`` while committing,
cross-thread trace context stitches submitter spans to writer-side
commits, an injected fault lands in the flight recorder's post-mortem
dump, and an SLO rule flips the health endpoint to 503.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.graph.datagraph import EdgeKind
from repro.obs import InMemorySink, SloRule, observed
from repro.obs import current as current_obs
from repro.query.index_evaluator import evaluate_on_index
from repro.resilience.faults import FaultInjector
from repro.resilience.guard import GuardConfig
from repro.service import IndexService, ServiceConfig, Update
from repro.workload.random_graphs import candidate_edges
from repro.workload.updates import MixedUpdateWorkload


def idref_ops(graph, count: int, seed: int = 3) -> list[Update]:
    pairs = candidate_edges(graph, random.Random(seed), count, acyclic=False)
    assert len(pairs) == count
    return [Update.insert_edge(u, v, EdgeKind.IDREF) for u, v in pairs]


def wait_drained(service, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if service.queue_depth() == 0:
            # the writer pops a batch before committing it, so an empty
            # queue can still have a commit in flight; the writer lock
            # being free proves the last drained batch has landed
            with service._writer_lock:
                if service.queue_depth() == 0:
                    return
        time.sleep(0.005)
    raise AssertionError(f"queue not drained: depth={service.queue_depth()}")


class TestTracePropagation:
    """Satellite: the submitter's span must parent the writer's commit."""

    def test_submit_span_parents_the_background_commit(self, xmark_graph):
        sink = InMemorySink()
        with observed(sink) as obs:
            service = IndexService(
                xmark_graph,
                ServiceConfig(batch_max_ops=8, writer_idle_wait=0.005),
            )
            service.start()
            try:
                with obs.span("ingest"):
                    for update in idref_ops(xmark_graph, 3):
                        service.submit(update)
                wait_drained(service)
            finally:
                service.stop()
        (ingest,) = sink.spans("ingest")
        commits = sink.spans("service.commit")
        assert commits, "writer never committed"
        # the commit ran on the writer thread, where the thread-local
        # span stack is empty — only the stamped context can link them
        assert commits[0]["parent"] == ingest["id"]
        txns = sink.spans("txn")
        assert txns
        assert all(t["parent"] == commits[0]["id"] for t in txns[:1])

    def test_unstamped_submit_leaves_commit_parentless(self, xmark_graph):
        sink = InMemorySink()
        with observed(sink):
            service = IndexService(xmark_graph, ServiceConfig(batch_max_ops=8))
            for update in idref_ops(xmark_graph, 2):
                service.submit(update)  # no enclosing span
            service.flush()
            service.close()
        (commit,) = sink.spans("service.commit")
        assert commit["parent"] is None

    def test_explicit_trace_parent_survives_coalescing_equality(self):
        a = Update.insert_edge(1, 2, EdgeKind.IDREF)
        b = Update.insert_edge(1, 2, EdgeKind.IDREF)
        from dataclasses import replace

        stamped = replace(a, trace_parent=42)
        # trace context is carried metadata, not identity: coalescing
        # must still recognise the operations as the same
        assert stamped == b


class TestServiceHealth:
    def test_health_reports_liveness_facts(self, xmark_graph):
        service = IndexService(xmark_graph)
        for update in idref_ops(xmark_graph, 2):
            service.submit(update)
        service.flush()
        doc = service.health()
        assert doc["family"] == "one"
        assert doc["version"] == 1
        assert doc["closed"] is False
        assert doc["writer_alive"] is False
        assert doc["queue_depth"] == 0
        assert doc["submitted"] == 2
        assert doc["num_inodes"] == service.snapshot.index.num_inodes
        assert doc["num_dnodes"] == xmark_graph.num_nodes
        json.dumps(doc)

    @pytest.mark.parametrize("family", ["one", "ak"])
    def test_health_never_races_the_writer(self, xmark_graph, family):
        # /health runs on the telemetry server's threads without the writer
        # lock, so it may read only what no commit changes
        steps = MixedUpdateWorkload.prepare(xmark_graph, seed=3).steps(100, validate=False)
        updates = [
            Update.insert_edge(source, target, EdgeKind.IDREF)
            if op == "insert"
            else Update.delete_edge(source, target)
            for op, source, target in steps
        ]
        service = IndexService(
            xmark_graph, ServiceConfig(family=family, batch_max_ops=4, writer_idle_wait=0.001)
        )
        errors, calls = [], [0, 0]
        stop = threading.Event()

        def read_health(slot: int) -> None:
            while not stop.is_set():
                try:
                    service.health()
                except Exception as exc:  # noqa: BLE001 - any raise is the failure
                    errors.append(exc)
                calls[slot] += 1

        readers = [threading.Thread(target=read_health, args=(slot,)) for slot in (0, 1)]
        for reader in readers:
            reader.start()
        service.start()
        try:
            for update in updates:
                service.submit(update)
            wait_drained(service, timeout=120.0)
        finally:
            stop.set()
            for reader in readers:
                reader.join()
            service.close()
        assert errors == []
        assert service.stats.batches >= len(updates) // 4
        assert min(calls) > 0


class TestValidationSignals:
    """Validation apart from index evaluation, on the live plane and ``/health``."""

    EXACT = "/site/people"  # two steps: A(2) answers it without validation
    LAYERED = "/site/people/person/name"  # four child steps at k = 2
    DESCENDANT = "//name"  # a loop state: layers closed under predecessors

    def test_validated_queries_report_time_and_visits(self, xmark_graph):
        with observed() as obs:
            service = IndexService(xmark_graph, ServiceConfig(family="ak", k=2))
            telemetry = service.start_telemetry(serve=False)
            try:
                reports = [
                    service.query(e).report for e in (self.EXACT, self.LAYERED, self.DESCENDANT)
                ]
                assert [r.validated for r in reports] == [False, True, True]
                health = telemetry.health()["service"]
                assert (health["queries"], health["queries_validated"]) == (3, 2)
                # both shapes report; the visits are the validation half only
                seconds = obs.metrics.histogram("query.validation_seconds")
                assert seconds.count == 2 and seconds.total > 0
                index_side = sum(
                    evaluate_on_index(service.snapshot.index, e).nodes_visited
                    for e in (self.LAYERED, self.DESCENDANT)
                )
                visits = sum(r.nodes_visited for r in reports[1:]) - index_side
                assert obs.metrics.counter("query.validation_visits").value == visits > 0
                assert telemetry.plane.window("query.validation_seconds").count == 2
                assert telemetry.plane.window("query.validation_visits").count == visits
            finally:
                service.close()

    def test_nobody_watching_is_the_default(self, xmark_graph):
        service = IndexService(xmark_graph, ServiceConfig(family="ak", k=2))
        assert not current_obs().enabled
        assert service.query(self.LAYERED).report.validated
        assert service.health()["queries_validated"] == 1
        service.close()


class TestLiveServiceSoak:
    """The ISSUE acceptance test: metrics + health served live, a fault
    dumps the flight recorder, and an SLO breach degrades /health."""

    def test_soak_serve_fault_dump_and_slo_degrade(self, xmark_graph, tmp_path):
        updates = idref_ops(xmark_graph, 40)
        # starts inert; armed after the healthy phase so the fault lands
        # deterministically inside a fault-phase batch regardless of how
        # many journal records each healthy commit produced
        injector = FaultInjector()
        rules = [
            SloRule(
                name="no-rollbacks",
                metric="resilience.rollbacks",
                stat="rate",
                op=">",
                threshold=0.0,
                description="any rollback in the window degrades the service",
            )
        ]
        dump_dir = tmp_path / "flight"
        with observed():
            service = IndexService(
                xmark_graph,
                ServiceConfig(
                    batch_max_ops=4,
                    writer_idle_wait=0.005,
                    guard=GuardConfig(policy="degrade"),
                ),
                fault_injector=injector,
            )
            telemetry = service.start_telemetry(
                rules=rules,
                dump_dir=str(dump_dir),
            )
            assert service.start_telemetry() is telemetry  # idempotent
            service.start()
            try:
                # -- healthy phase: commits flow while both endpoints serve
                for update in updates[:15]:
                    service.submit(update)
                body = (
                    urllib.request.urlopen(f"{telemetry.url}/metrics")
                    .read()
                    .decode()
                )
                for line in body.splitlines():  # parseable exposition text
                    if line and not line.startswith("#"):
                        float(line.rsplit(" ", 1)[1])
                health = json.load(
                    urllib.request.urlopen(f"{telemetry.url}/health")
                )
                assert health["status"] == "ok"
                assert health["service"]["writer_alive"] is True
                wait_drained(service)
                assert injector.fired == 0

                # -- fault phase: the injector kills a txn record mid-batch
                injector.at_record = injector.seen + 3
                for update in updates[15:]:
                    service.submit(update)
                wait_drained(service)
                assert injector.fired == 1
                assert service.guarded.stats.rollbacks >= 1
                assert service.guarded.stats.degradations >= 1

                # live metrics kept flowing through the degrade
                body = (
                    urllib.request.urlopen(f"{telemetry.url}/metrics")
                    .read()
                    .decode()
                )
                assert "repro_service_batches" in body
                assert "repro_live_service_batch_commit_seconds" in body
                assert 'stat="p95"' in body

                # -- the rollback tripped the flight recorder ...
                dumps = sorted(dump_dir.glob("flight-*.json"))
                assert dumps, "no flight-recorder dump was written"
                document = json.loads(dumps[0].read_text())
                names = [r["name"] for r in document["records"]]
                assert "resilience.rolled_back" in names
                # the history leading up to the failure is in the dump:
                # the earlier commits' spans were still in the ring
                assert "service.commit" in names

                # -- ... and the SLO rule flips /health to 503
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(f"{telemetry.url}/health")
                assert err.value.code == 503
                degraded = json.load(err.value)
                assert degraded["status"] == "critical"
                (rule_doc,) = degraded["rules"]
                assert rule_doc["rule"] == "no-rollbacks"
                assert rule_doc["status"] == "critical"
                assert degraded["flight"]["dumps"]

                # every update landed despite the fault (degrade policy)
                assert service.stats.applied_ops == len(updates)
                service.check()
            finally:
                service.close()  # drains, stops telemetry, closes service
        # the bundle detached cleanly: a fresh health read still works
        assert telemetry.health()["status"] in ("ok", "critical")
