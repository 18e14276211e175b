"""Service soak: a seeded closed loop with fault injection.

The CI soak job runs this module across a ``SOAK_SEED`` matrix.  Each
run drives a full closed-loop session — background writer thread on,
queries and updates racing — while a rate-based fault injector fires
inside batch transactions, and then asserts the strongest property the
library can state: the graph and index still pass their full invariant
oracles, and the final published snapshot still serves ground truth.
Zero invariant violations, every seed.
"""

from __future__ import annotations

import pytest

from repro.graph.datagraph import EdgeKind
from repro.query.evaluator import evaluate_on_graph
from repro.resilience.faults import FaultInjector
from repro.resilience.guard import GuardConfig
from repro.service import IndexService, ServiceConfig, Update
from repro.workload.queries import QueryWorkload
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import generate_xmark

from tests.service.conftest import SERVICE_XMARK, SOAK_SEED
from tests.workload.sessions import ClosedLoopDriver, SessionMix


@pytest.mark.parametrize("family", ["one", "ak"])
def test_soak_faulted_closed_loop(family):
    graph = generate_xmark(SERVICE_XMARK).graph
    updates = MixedUpdateWorkload.prepare(graph, seed=29 + SOAK_SEED)
    injector = FaultInjector(rate=0.002, seed=31 + SOAK_SEED, rearm=True)
    service = IndexService(
        graph,
        ServiceConfig(
            family=family,
            k=2,
            batch_max_ops=16,
            queue_capacity=64,
            guard=GuardConfig(policy="degrade"),
        ),
        fault_injector=injector,
    )
    queries = QueryWorkload.generate(graph, count=24, seed=37 + SOAK_SEED)
    driver = ClosedLoopDriver(
        service, updates, queries, SessionMix(steps=400, seed=41 + SOAK_SEED)
    )
    report = driver.run()

    # the loop ran to completion and no batch was lost
    assert report.queries > 0 and report.batches > 0
    assert report.batch_failures == 0
    assert report.updates_shed == 0
    assert report.versions_published == report.batches

    # zero invariant violations: the full oracles pass...
    assert service.guarded.stats.check_failures == 0
    service.check()
    # ...and the final version serves ground truth
    snapshot = service.snapshot
    for expression in queries:
        served = sorted(snapshot.evaluate(expression).matches)
        truth = sorted(evaluate_on_graph(snapshot.graph, expression).matches)
        assert served == truth
    service.close()


def test_soak_background_writer_under_faults():
    """Readers race the faulting writer thread; answers stay versioned."""
    graph = generate_xmark(SERVICE_XMARK).graph
    updates = MixedUpdateWorkload.prepare(graph, seed=43 + SOAK_SEED)
    injector = FaultInjector(rate=0.002, seed=47 + SOAK_SEED, rearm=True)
    service = IndexService(
        graph,
        ServiceConfig(
            family="one",
            batch_max_ops=8,
            queue_capacity=32,
            guard=GuardConfig(policy="degrade"),
            writer_idle_wait=0.005,
        ),
        fault_injector=injector,
    )
    queries = QueryWorkload.generate(graph, count=16, seed=53 + SOAK_SEED)
    service.start()
    try:
        for op, source, target in updates.steps(60, validate=False):
            if op == "insert":
                service.submit(Update.insert_edge(source, target, EdgeKind.IDREF))
            else:
                service.submit(Update.delete_edge(source, target))
            answer = service.query(queries.sample())
            assert answer.version <= service.version
    finally:
        service.stop()
    assert service.queue_depth() == 0
    assert service.stats.applied_ops > 0
    assert service.guarded.stats.check_failures == 0
    service.check()
    service.close()
