"""End-to-end tests for the adaptive service (repro.adaptive.service).

The audit mode is the strongest oracle available: every served answer —
routed, cached or safe — is re-derived from the version's own frozen
graph inside ``query()`` and a mismatch raises.  The closed-loop tests
here run entirely in that mode, so thousands of routed/cached answers
are checked against scratch evaluation per run.
"""

from __future__ import annotations

import pytest

from repro.adaptive import AdaptiveConfig, AdaptiveIndexService
from repro.adaptive.router import SAFE
from repro.exceptions import ServiceError
from repro.obs.slo import default_adaptive_rules, default_service_rules
from repro.query.evaluator import evaluate_on_graph
from repro.service import ServiceConfig, Update
from repro.workload.queries import QueryWorkload
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import generate_xmark

from tests.adaptive.conftest import ADAPT_SEED, ADAPTIVE_XMARK
from tests.workload.sessions import ClosedLoopDriver, SessionMix, ShiftingQueryPool

STEPS = 300


def build_service(graph, family="ak", k=3, adaptive=None, batch_max_ops=16):
    return AdaptiveIndexService(
        graph,
        ServiceConfig(family=family, k=k, batch_max_ops=batch_max_ops),
        adaptive if adaptive is not None else AdaptiveConfig(audit=True),
    )


def run_closed_loop(family, seed, steps=STEPS, adaptive=None, k=3, batch_max_ops=16):
    graph = generate_xmark(ADAPTIVE_XMARK).graph
    updates = MixedUpdateWorkload.prepare(graph, seed=seed)
    service = build_service(
        graph, family=family, k=k, adaptive=adaptive, batch_max_ops=batch_max_ops
    )
    short = QueryWorkload.generate(
        graph, count=16, seed=seed + 1, max_depth=2, descendant_fraction=0.0
    )
    deep = QueryWorkload.generate(
        graph, count=16, seed=seed + 2, max_depth=4, descendant_fraction=0.4
    )
    pool = ShiftingQueryPool([(steps // 4, short), (steps // 4, deep)])
    driver = ClosedLoopDriver(
        service, updates, pool, SessionMix(steps=steps, seed=seed + 3)
    )
    report = driver.run()
    return service, report


@pytest.mark.parametrize("family", ["ak", "one"])
def test_audited_closed_loop_serves_ground_truth(family):
    service, report = run_closed_loop(family, seed=11 + ADAPT_SEED)
    try:
        # every query was audited against its version's frozen graph
        assert service.audits == report.queries > 0
        assert report.batch_failures == 0
        assert service.version > 0
        # the cache saw real traffic and the router dispatched it
        assert service.cache.stats.hits > 0
        assert sum(service.router.lifetime_routed.values()) == report.queries
        if family == "ak":
            exact = sum(
                n for key, n in service.router.lifetime_routed.items() if key != SAFE
            )
            assert exact > 0
        else:
            assert set(service.router.lifetime_routed) <= {SAFE}
        service.check()
    finally:
        service.close()


def test_routed_answers_match_scratch_evaluation(xmark_graph):
    service = build_service(xmark_graph, adaptive=AdaptiveConfig(audit=False))
    try:
        pool = QueryWorkload.generate(
            xmark_graph, count=24, seed=5 + ADAPT_SEED, max_depth=4
        )
        snapshot = service.snapshot
        for expression in pool:
            served = service.query(expression)
            truth = evaluate_on_graph(snapshot.graph, expression).matches
            assert served.report.matches == truth, expression
    finally:
        service.close()


def test_cache_revalidates_across_commits():
    # pinned seeds and small batches: the closed loop's operation sequence
    # is deterministic and per-commit change sets stay narrow, so
    # footprint-disjoint commits provably revalidate instead of flushing
    service, _ = run_closed_loop(
        "ak", seed=17, steps=400, k=4, batch_max_ops=4,
        adaptive=AdaptiveConfig(levels=(1, 2), audit=True),
    )
    try:
        stats = service.cache.stats
        assert stats.hits > 0
        assert stats.revalidated > 0, stats.as_dict()
        # repeats in the shifting mix are served from the cache more
        # often than not, even with every commit invalidating
        assert stats.hit_rate >= 0.5, stats.as_dict()
    finally:
        service.close()


@pytest.mark.parametrize("family", ["one"])
def test_reconstruct_now_publishes_a_correct_version(family):
    graph = generate_xmark(ADAPTIVE_XMARK).graph
    service = build_service(graph, family=family)
    try:
        pool = QueryWorkload.generate(graph, count=8, seed=7 + ADAPT_SEED)
        before = {e: service.query(e).report.matches for e in pool}
        version, published = service.version, service.stats.versions_published
        service.reconstruct_now(reason="test")
        # one ordinary commit: one version, published once
        assert service.version == version + 1
        assert service.stats.versions_published == published + 1
        assert service.controller.policy.reconstructions == 1
        # published incrementally from the journaled merges: entries whose
        # footprint misses the merged inodes survive, nothing is flushed
        assert service.cache.stats.flushes == 0
        assert service.cache.stats.revalidated > 0
        for expression, matches in before.items():
            assert service.query(expression).report.matches == matches
        service.check()
    finally:
        service.close()


def test_an_ak_family_is_never_reconstructed():
    # Theorem 2: A(k) maintenance keeps the unique minimum, so a
    # "reconstruction" could only rename tokens and flush the cache
    graph = generate_xmark(ADAPTIVE_XMARK).graph
    service = build_service(graph, family="ak")
    try:
        version = service.version
        with pytest.raises(ServiceError, match="never reconstructed"):
            service.reconstruct_now(reason="test")
        with pytest.raises(ServiceError, match="never reconstructed"):
            service.submit_nowait(Update.reconstruct())
        assert service.queue_depth() == 0 and service.version == version
        assert not service.controller.reconstructs
        assert service.controller.policy.reconstructions == 0
    finally:
        service.close()


class TestLadderControl:
    def test_set_ladder_levels_rejects_the_one_family(self, xmark_graph):
        service = build_service(xmark_graph, family="one")
        try:
            with pytest.raises(ServiceError):
                service.set_ladder_levels((1,))
        finally:
            service.close()

    def test_router_switches_immediately_and_ladder_follows(self, xmark_graph):
        updates = MixedUpdateWorkload.prepare(xmark_graph, seed=3 + ADAPT_SEED)
        service = build_service(xmark_graph, k=3)
        try:
            pool = QueryWorkload.generate(
                xmark_graph, count=8, seed=9 + ADAPT_SEED, max_depth=2,
                descendant_fraction=0.0,
            )
            service.set_ladder_levels((2,))
            assert service.router.levels == (2,)
            # the ladder state still publishes the old levels until the
            # next commit; queries must stay correct through the gap
            for expression in pool:
                service.query(expression)
            for op, source, target in updates.steps(8, validate=False):
                from repro.graph.datagraph import EdgeKind
                from repro.service import Update

                if op == "insert":
                    service.submit_nowait(Update.insert_edge(source, target, EdgeKind.IDREF))
                else:
                    service.submit_nowait(Update.delete_edge(source, target))
            while service.flush() is not None:
                pass
            assert 2 in service.ladder_sizes()
            for expression in pool:
                service.query(expression)
            service.check()
        finally:
            service.close()

    def test_ladder_sizes_cover_published_levels(self, xmark_graph):
        service = build_service(xmark_graph, k=3)
        try:
            sizes = service.ladder_sizes()
            assert set(sizes) == {0, 1, 3}  # default ladder plus the leaf
            assert sizes[0] <= sizes[1] <= sizes[3]
        finally:
            service.close()


class TestTelemetryAndHealth:
    def test_health_reports_the_adaptive_plane(self, xmark_graph):
        service = build_service(xmark_graph, k=3)
        try:
            doc = service.health()["adaptive"]
            assert doc["levels"] == [0, 1]
            assert doc["k"] == 3
            assert "hit_rate" in doc["cache"]
            assert doc["reconstructions"] == 0
        finally:
            service.close()

    def test_stock_rules_and_no_alert_hook(self, xmark_graph):
        service = build_service(xmark_graph, k=3)
        try:
            bundle = service.start_telemetry(serve=False)
            stock = default_service_rules() + default_adaptive_rules()
            assert bundle.watchdog.rules == stock
            # the verdicts are operator alerts: nothing on the write path
            # subscribes to them
            assert not hasattr(bundle.watchdog, "on_alert")
            assert not hasattr(service.controller, "on_alert")
        finally:
            service.close()
