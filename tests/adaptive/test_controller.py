"""Tests for the adaptive controller (repro.adaptive.controller).

The controller fires the paper's one reconstruction trigger — Section 7's
flat 5 % growth policy, :class:`~repro.maintenance.ReconstructionPolicy`
— on the published size of a 1-index, and retunes an A(k) ladder from
the router's demand window (:func:`ladder_advice`).
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.adaptive import AdaptiveConfig
from repro.adaptive.controller import MAX_LEVELS, MIN_WINDOW, ladder_advice
from repro.maintenance.reconstruction import DEFAULT_THRESHOLD, ReconstructionPolicy
from repro.obs import observed
from repro.obs.slo import CRITICAL
from repro.service import IndexService, ServiceConfig, Update
from repro.workload.xmark import XMarkConfig, generate_xmark

#: a 1-index of 118 inodes: six fresh-label commits take it past 5 %
TINY_XMARK = XMarkConfig(
    num_items=4, num_persons=4, num_open_auctions=2, num_closed_auctions=2, num_categories=2
)


def grow(service: IndexService, commits: int):
    """One fresh-label node per commit: genuine growth, one inode each.

    A reconstruction recovers nothing on such a trajectory (zero yield).
    Yields every commit's result.
    """
    root = service.graph.root
    for i in range(commits):
        service.submit(Update.insert_node(root, f"grown{i}"))
        yield service.flush()


class TestReconstructionTrigger:
    def test_decides_like_the_paper_trigger(self):
        # the trajectory holds zero-yield reconstructions: after each, the
        # trigger must fire again at the next 5 % — never skip
        graph = generate_xmark(TINY_XMARK).graph
        service = IndexService(graph, ServiceConfig(family="one"), adaptive=AdaptiveConfig())
        try:
            policy = service.controller.policy
            assert type(policy) is ReconstructionPolicy
            assert policy.threshold == DEFAULT_THRESHOLD
            flat = ReconstructionPolicy()
            flat.start(service.snapshot.num_inodes)
            for result in grow(service, 36):
                size = service.snapshot.num_inodes
                if result.reconstructed:
                    assert size >= flat.baseline_size  # nothing recovered
                    flat.reconstructed(size)
                else:
                    requested = flat.should_reconstruct(size)
                    assert service.queue.holds("reconstruct") == requested
            assert flat.reconstructions >= 2
            assert (policy.reconstructions, policy.intervals) == (
                flat.reconstructions, flat.intervals,
            )
            assert service.health()["adaptive"]["reconstructions"] == flat.reconstructions
            service.check()
        finally:
            service.close()

    @pytest.mark.parametrize("telemetry", [False, True], ids=["bare", "telemetry"])
    def test_growth_past_five_percent_commits_a_reconstruct(self, telemetry):
        # the SLO plane is for operators: a paging rule neither starts nor
        # delays a reconstruction, and stopping the plane leaves nothing behind
        graph = generate_xmark(TINY_XMARK).graph
        service = IndexService(graph, ServiceConfig(family="one"), adaptive=AdaptiveConfig())
        try:
            with observed() if telemetry else nullcontext():
                if telemetry:
                    bundle = service.start_telemetry(serve=False)
                    for expression in ("/site/people", "/site/regions"):
                        service.query(expression)  # two cold misses: hit rate 0
                    verdicts = {s.rule.name: s.status for s in bundle.watchdog.evaluate()}
                    assert verdicts["adaptive-cache-hit-rate"] == CRITICAL
                    service.stop_telemetry()
                start = service.snapshot.num_inodes
                sizes, fired = {}, []
                for result in grow(service, 8):
                    sizes[result.version] = service.snapshot.num_inodes
                    if result.reconstructed:
                        fired.append(result.version)
            # requested by the commit that crossed 5 %, carried by the next
            crossing = min(v for v, size in sizes.items() if size > (1 + DEFAULT_THRESHOLD) * start)
            assert fired == [crossing + 1]
            assert service.health()["adaptive"]["reconstructions"] == 1
            service.check()
        finally:
            service.close()


class TestLadderAdvice:
    def test_ladder_advice_needs_a_window(self):
        window = {"total": MIN_WINDOW - 1, "routed": {}, "demand": {}, "levels": (1,), "k": 4}
        assert not ladder_advice(window)

    def test_drops_idle_levels_and_adds_demanded_ones(self):
        window = {
            "total": 100,
            # level 3 serves almost nothing; length-1 demand lands on it
            "routed": {3: 1, 4: 99},
            "demand": {1: 60, 4: 39},
            "levels": (3,),
            "k": 4,
        }
        advice = ladder_advice(window)
        assert 3 in advice.drop
        assert 1 in advice.add

    def test_respects_max_levels(self):
        window = {
            "total": 100,
            "routed": {1: 20, 2: 20, 3: 20, 6: 40},
            # length 4 lands on the leaf (6), two levels coarser: demanded
            "demand": {4: 40},
            "levels": (1, 2, 3),
            "k": 6,
        }
        assert MAX_LEVELS == 3
        advice = ladder_advice(window)
        assert advice.add == ()  # no room: three surviving levels already
        assert ladder_advice({**window, "levels": (1, 2), "routed": {1: 30, 2: 30, 6: 40}}).add == (4,)
