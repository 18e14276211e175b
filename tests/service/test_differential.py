"""Differential serving tests: snapshots vs ground truth at every version.

The serving layer's correctness claim is end-to-end: after **every**
committed batch, the answers served from the published snapshot must be
byte-equal to evaluating the same expressions from scratch on the data
graph *of that same version*.  The snapshot carries its own frozen graph
copy, so the ground truth is computed version-consistently even while
the live graph keeps moving.

Runs a 500-step closed-loop mixed session (the Section 7 protocol
interleaved with queries) for both index families, and again with a
fault injector forcing mid-batch rollbacks under the ``degrade`` policy
— served answers must stay exact through rollback + rebuild.

Since publication is incremental by default, the checker also asserts
the structural claim behind it at every version: the evolve-published
snapshot must be **byte-identical** (canonical fingerprint) to a full
``IndexSnapshot.capture()`` of the same live state — including right
after degrade-rebuilds, where the touched set falls back to ``full``.
"""

from __future__ import annotations

import json

import pytest

from repro.adaptive import AdaptiveConfig, AdaptiveIndexService
from repro.query.evaluator import evaluate_on_graph
from repro.resilience.faults import FaultInjector
from repro.service.snapshot import IndexSnapshot
from repro.resilience.guard import GuardConfig
from repro.service import IndexService, ServiceConfig
from repro.workload.queries import QueryWorkload
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import generate_xmark

from tests.service.conftest import SERVICE_XMARK, SOAK_SEED
from tests.workload.sessions import ClosedLoopDriver, SessionMix, ShiftingQueryPool

STEPS = 500


def canonical(matches) -> str:
    """The byte-comparable form of a result set."""
    return json.dumps(sorted(matches))


class SnapshotChecker:
    """An ``on_commit`` hook that audits every published version."""

    def __init__(self, service: IndexService, queries: QueryWorkload):
        self.service = service
        self.queries = queries
        self.versions_checked: list[int] = []

    def __call__(self, batch_result) -> None:
        snapshot = self.service.snapshot
        assert snapshot.version == batch_result.version
        # the evolve-published version must be byte-identical to a full
        # capture of the live state it claims to freeze
        fresh = IndexSnapshot.capture(
            snapshot.version, self.service.graph, self.service.structure
        )
        assert snapshot.fingerprint() == fresh.fingerprint(), (
            f"v{snapshot.version}: evolve-published snapshot differs "
            "from a fresh capture of the same state"
        )
        for expression in self.queries:
            served = canonical(snapshot.evaluate(expression).matches)
            truth = canonical(evaluate_on_graph(snapshot.graph, expression).matches)
            assert served == truth, (
                f"v{snapshot.version} {expression!r}: served {served} != {truth}"
            )
        self.versions_checked.append(snapshot.version)


def run_differential(family: str, injector=None, guard=None):
    graph = generate_xmark(SERVICE_XMARK).graph
    updates = MixedUpdateWorkload.prepare(graph, seed=17 + SOAK_SEED)
    config = ServiceConfig(
        family=family,
        k=2,
        batch_max_ops=16,
        guard=guard if guard is not None else ServiceConfig().guard,
    )
    service = IndexService(graph, config, fault_injector=injector)
    queries = QueryWorkload.generate(graph, count=12, seed=19 + SOAK_SEED)
    checker = SnapshotChecker(service, queries)
    driver = ClosedLoopDriver(
        service,
        updates,
        queries,
        SessionMix(steps=STEPS, seed=21 + SOAK_SEED),
        on_commit=checker,
    )
    report = driver.run()
    service.close()
    return service, checker, report


@pytest.mark.parametrize("family", ["one", "ak"])
def test_every_version_serves_ground_truth(family):
    service, checker, report = run_differential(family)
    assert report.steps == STEPS
    assert report.batches > 0 and report.batch_failures == 0
    # every committed batch was audited, in version order, gap-free
    assert checker.versions_checked == list(range(1, report.batches + 1))
    service.check()


@pytest.mark.parametrize("family", ["one", "ak"])
def test_ground_truth_survives_forced_rollbacks(family):
    injector = FaultInjector(at_record=100 + SOAK_SEED, rearm=True)
    service, checker, report = run_differential(
        family, injector=injector, guard=GuardConfig(policy="degrade")
    )
    # the run must actually have exercised rollback + degrade
    assert injector.fired >= 1
    assert service.guarded.stats.rollbacks >= 1
    assert service.guarded.stats.degradations >= 1
    # ...and still have served exact answers at every single version
    assert report.batch_failures == 0
    assert checker.versions_checked == list(range(1, report.batches + 1))
    service.check()


class RoutedChecker:
    """An ``on_commit`` hook that audits the *routed* read path.

    Where :class:`SnapshotChecker` evaluates on the published snapshot,
    this one drives every pooled expression through
    ``AdaptiveIndexService.query`` — ladder routing, result cache and
    all — and compares each answer against scratch evaluation on the
    version's own frozen graph.  Replaying the same pool at every
    version is also what exercises the cache's commit-edge logic
    (revalidation vs invalidation) hardest.
    """

    def __init__(self, service: AdaptiveIndexService, pool):
        self.service = service
        self.pool = pool
        self.versions_checked: list[int] = []

    def __call__(self, batch_result) -> None:
        snapshot = self.service.snapshot
        assert snapshot.version == batch_result.version
        for expression in self.pool:
            served = self.service.query(expression)
            assert served.version == snapshot.version
            got = canonical(served.report.matches)
            truth = canonical(evaluate_on_graph(snapshot.graph, expression).matches)
            assert got == truth, (
                f"v{snapshot.version} {expression!r}: routed {got} != {truth}"
            )
        self.versions_checked.append(snapshot.version)


def run_adaptive_differential(family: str, injector=None, guard=None, threshold=None):
    graph = generate_xmark(SERVICE_XMARK).graph
    updates = MixedUpdateWorkload.prepare(graph, seed=17 + SOAK_SEED)
    config = ServiceConfig(
        family=family,
        k=2,
        batch_max_ops=16,
        guard=guard if guard is not None else ServiceConfig().guard,
    )
    adaptive = AdaptiveConfig(audit=True)
    service = AdaptiveIndexService(graph, config, adaptive, fault_injector=injector)
    if threshold is not None:
        service.controller.policy.threshold = threshold
    # a shifting mix: short child-only traffic giving way to a deeper
    # descendant-heavy phase, so both exact routes and the safe path are
    # on trial at every version
    short = QueryWorkload.generate(
        graph, count=8, seed=19 + SOAK_SEED, max_depth=2, descendant_fraction=0.0
    )
    deep = QueryWorkload.generate(
        graph, count=8, seed=23 + SOAK_SEED, max_depth=4, descendant_fraction=0.5
    )
    pool = ShiftingQueryPool([(STEPS // 4, short), (STEPS // 4, deep)])
    checker = RoutedChecker(service, pool)
    driver = ClosedLoopDriver(
        service,
        updates,
        pool,
        SessionMix(steps=STEPS, seed=21 + SOAK_SEED),
        on_commit=checker,
    )
    report = driver.run()
    service.close()
    return service, checker, report


@pytest.mark.parametrize("family", ["one", "ak"])
def test_adaptive_routed_answers_are_ground_truth_at_every_version(family):
    service, checker, report = run_adaptive_differential(family)
    assert report.steps == STEPS
    assert report.batches > 0 and report.batch_failures == 0
    # the controller submits its reconstructions through the queue, so
    # the committed batches are exactly the published versions
    assert len(checker.versions_checked) == report.batches
    assert report.versions_published == report.batches
    assert checker.versions_checked == sorted(checker.versions_checked)
    # the driver's own queries were audited too (AdaptiveConfig.audit)
    assert service.audits >= report.queries
    assert service.cache.stats.hits > 0
    service.check()


@pytest.mark.parametrize("family", ["one", "ak"])
def test_adaptive_ground_truth_survives_forced_rollbacks(family):
    injector = FaultInjector(at_record=100 + SOAK_SEED, rearm=True)
    service, checker, report = run_adaptive_differential(
        family, injector=injector, guard=GuardConfig(policy="degrade")
    )
    # rollback + degrade genuinely happened...
    assert injector.fired >= 1
    assert service.guarded.stats.rollbacks >= 1
    assert service.guarded.stats.degradations >= 1
    # ...and every routed/cached answer stayed exact at every version
    assert report.batch_failures == 0
    assert len(checker.versions_checked) == report.batches
    service.check()


@pytest.mark.parametrize("family", ["one", "ak"])
def test_every_adaptive_flush_publishes_exactly_one_version(family, monkeypatch):
    """One ``flush()``, one version — with reconstructions in the stream.

    The controller used to reconstruct *inside* ``flush()`` through a
    publish of its own, so ``flush()`` could return a ``BatchResult``
    naming a version older than the one being served.  The trigger here
    fires on any growth at all, so the ``one`` session is dense with
    ``reconstruct`` commits.
    """
    seen = []
    plain_flush = IndexService.flush

    def checked_flush(service):
        published = service.stats.versions_published
        result = plain_flush(service)
        if result is not None:
            assert result.version == service.version
            assert service.stats.versions_published == published + 1
            seen.append(result)
        return result

    monkeypatch.setattr(IndexService, "flush", checked_flush)
    service, checker, report = run_adaptive_differential(family, threshold=0.0)
    assert len(seen) >= report.batches > 0
    reconstructions = sum(result.reconstructed for result in seen)
    assert reconstructions == service.controller.policy.reconstructions
    assert (reconstructions > 0) == (family == "one")
    service.check()
