"""Unit tests for the cost model (repro.adaptive.cost_model).

The structural claim ISSUE acceptance leans on: with its floor at the
paper's flat threshold, :class:`CostBasedPolicy` can never fire more
often than the flat :class:`~repro.maintenance.ReconstructionPolicy` on
the same size trajectory — checked here on synthetic trajectories.
"""

from __future__ import annotations

import random

import pytest

from repro.adaptive.cost_model import (
    CostBasedPolicy,
    CostConfig,
    CostInputs,
    CostModel,
)
from repro.maintenance.reconstruction import ReconstructionPolicy

from tests.adaptive.conftest import ADAPT_SEED


def replay(policy, sizes, recovered_size):
    """Feed a size trajectory; on fire, reconstruct back to *recovered_size*."""
    fires = 0
    policy.start(sizes[0])
    for size in sizes[1:]:
        if policy.should_reconstruct(size):
            fires += 1
            policy.reconstructed(recovered_size)
    return fires


class TestProtocol:
    def test_speaks_the_reconstruction_protocol(self):
        # duck-typed: every call the runner and the controller make on the
        # flat policy is there on the cost-based one
        for name in ("start", "should_reconstruct", "reconstructed", "mean_interval"):
            assert hasattr(CostBasedPolicy, name) and hasattr(ReconstructionPolicy, name)
        for policy in (CostBasedPolicy(), ReconstructionPolicy()):
            assert (policy.reconstructions, policy.intervals) == (0, [])

    def test_tracks_intervals_like_the_flat_policy(self):
        policy = CostBasedPolicy()
        policy.start(100)
        for size in (101, 102, 120):
            policy.should_reconstruct(size)
        policy.reconstructed(100)
        assert policy.intervals == [3]
        assert policy.mean_interval == 3.0


class TestNeverMoreOftenThanFlat:
    def test_on_a_steady_growth_trajectory(self):
        sizes = [100 + 2 * i for i in range(60)]
        flat = replay(ReconstructionPolicy(threshold=0.05), sizes, 100)
        cost = replay(CostBasedPolicy(), sizes, 100)
        assert 0 < cost <= flat

    def test_on_seeded_random_trajectories(self):
        rng = random.Random(17 + ADAPT_SEED)
        for _ in range(10):
            size = 200
            sizes = [size]
            for _ in range(80):
                size = max(50, size + rng.randint(-4, 8))
                sizes.append(size)
            recovered = sizes[0]
            flat = replay(ReconstructionPolicy(threshold=0.05), list(sizes), recovered)
            cost = replay(CostBasedPolicy(), list(sizes), recovered)
            assert cost <= flat, sizes

    def test_zero_yield_growth_fires_less_than_flat(self):
        # genuine data growth: reconstruction recovers nothing, so after
        # the first fire the cost side learns yield 0 and skips until
        # the hard cap, while flat keeps firing every 5 %
        sizes = [100 + i for i in range(1, 15)]
        flat_policy = ReconstructionPolicy(threshold=0.05)
        flat = 0
        flat_policy.start(100)
        for size in sizes:
            if flat_policy.should_reconstruct(size):
                flat += 1
                flat_policy.reconstructed(size)  # nothing recovered
        cost_policy = CostBasedPolicy()
        cost = 0
        cost_policy.start(100)
        for size in sizes:
            if cost_policy.should_reconstruct(size):
                cost += 1
                cost_policy.reconstructed(size)
        assert cost < flat
        assert cost_policy.skipped_low_yield > 0


class TestPolicyTerms:
    def test_never_fires_at_or_below_the_floor(self):
        policy = CostBasedPolicy()
        policy.start(100)
        assert not policy.should_reconstruct(105)  # exactly 5 %

    def test_hard_cap_fires_even_with_zero_yield(self):
        policy = CostBasedPolicy(expected_yield=0.0)
        policy.start(100)
        assert policy.should_reconstruct(121)  # 21 % > 4 * 5 %

    def test_pressure_fires_above_the_floor(self):
        policy = CostBasedPolicy(expected_yield=0.0)
        policy.start(100)
        assert not policy.should_reconstruct(110)  # skipped: zero yield
        policy.note_pressure(True)
        assert policy.should_reconstruct(110)

    def test_yield_ewma_learns_from_reconstructions(self):
        policy = CostBasedPolicy()
        policy.start(100)
        assert policy.should_reconstruct(110)
        policy.reconstructed(100)  # full recovery -> yield ~1.0
        assert policy.expected_yield == pytest.approx(1.0)
        assert policy.should_reconstruct(110)
        policy.reconstructed(110)  # nothing recovered -> EWMA halves
        assert policy.expected_yield == pytest.approx(0.5)

    def test_empty_baseline_never_fires(self):
        policy = CostBasedPolicy()
        policy.start(0)
        assert not policy.should_reconstruct(100)


class TestCostModel:
    def test_pressure_verdicts(self):
        model = CostModel()
        policy = CostBasedPolicy()
        assert not model.update(CostInputs(query_p95_seconds=0.01), policy)
        assert not policy.pressured
        assert model.update(CostInputs(query_p95_seconds=1.0), policy)
        assert model.update(CostInputs(commit_p95_seconds=1.0), policy)
        assert model.update(CostInputs(slo_critical=True), policy)
        assert policy.pressured

    def test_ladder_advice_needs_a_window(self):
        model = CostModel(config=CostConfig(min_window=50))
        window = {"total": 10, "routed": {}, "demand": {}, "levels": (1,), "k": 4}
        assert not model.ladder_advice(window)

    def test_drops_idle_levels_and_adds_demanded_ones(self):
        model = CostModel(config=CostConfig(min_window=50, add_share=0.2, add_gap=2))
        window = {
            "total": 100,
            # level 3 serves almost nothing; length-1 demand lands on it
            "routed": {3: 1, 4: 99},
            "demand": {1: 60, 4: 39},
            "levels": (3,),
            "k": 4,
        }
        advice = model.ladder_advice(window)
        assert 3 in advice.drop
        assert 1 in advice.add

    def test_respects_max_levels(self):
        model = CostModel(config=CostConfig(min_window=10, max_levels=2))
        window = {
            "total": 100,
            "routed": {1: 30, 2: 30, 5: 40},
            "demand": {3: 40},
            "levels": (1, 2),
            "k": 5,
        }
        advice = model.ladder_advice(window)
        assert advice.add == ()  # no room: two surviving levels already
