"""Unit tests for the timing helpers."""

from __future__ import annotations

import pytest

from repro.metrics.timing import max_ms, mean_ms, p50_ms, p95_ms


class TestMeanMs:
    def test_mean(self):
        assert mean_ms([0.001, 0.003]) == pytest.approx(2.0)

    def test_empty(self):
        assert mean_ms([]) == 0.0


class TestTails:
    def test_p50(self):
        assert p50_ms([0.001, 0.002, 0.003]) == pytest.approx(2.0)

    def test_p95(self):
        values = [0.001] * 19 + [0.1]
        assert p95_ms(values) == pytest.approx(1.0)

    def test_max(self):
        assert max_ms([0.001, 0.005, 0.002]) == pytest.approx(5.0)

    def test_empty(self):
        assert p50_ms([]) == 0.0
        assert p95_ms([]) == 0.0
        assert max_ms([]) == 0.0
