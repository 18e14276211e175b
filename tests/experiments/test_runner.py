"""Unit tests for the shared experiment engine and reporting."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.experiments import runner
from repro.experiments.reporting import (
    format_percent,
    format_quality_series,
    format_run_summary,
    format_table,
)
from repro.experiments.runner import MixedRunResult, SeriesPoint, run_mixed_updates
from repro.index.oneindex import OneIndex
from repro.maintenance.base import UpdateStats
from repro.maintenance.reconstruction import ReconstructionPolicy
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.metrics.quality import minimum_1index_size_of
from repro.obs import MetricsRegistry
from repro.obs.metrics import DEFAULT_RESERVOIR
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import XMarkConfig, generate_xmark

CONFIG = XMarkConfig(
    num_items=30, num_persons=40, num_open_auctions=25,
    num_closed_auctions=15, num_categories=8,
)


class TestRunMixedUpdates:
    def test_basic_run(self):
        graph = generate_xmark(CONFIG).graph
        workload = MixedUpdateWorkload.prepare(graph, seed=3)
        index = OneIndex.build(graph)
        result = run_mixed_updates(
            name="test",
            maintainer=SplitMergeMaintainer(index),
            workload=workload,
            num_pairs=10,
            sample_every=5,
            minimum_size_fn=minimum_1index_size_of,
        )
        assert result.updates == 20
        assert len(result.points) == 4
        assert result.final_size == index.num_inodes
        assert result.update_seconds > 0
        assert result.mean_update_ms > 0
        # split/merge on any graph: quality stays at/near zero
        assert result.max_quality < 0.02

    def test_policy_wiring(self):
        graph = generate_xmark(CONFIG).graph
        workload = MixedUpdateWorkload.prepare(graph, seed=3)
        index = OneIndex.build(graph)
        policy = ReconstructionPolicy(threshold=0.0001)  # fires aggressively
        calls = []
        result = run_mixed_updates(
            name="test",
            maintainer=SplitMergeMaintainer(index),
            workload=workload,
            num_pairs=5,
            sample_every=100,
            minimum_size_fn=minimum_1index_size_of,
            policy=policy,
            reconstruct=lambda: calls.append(1),
        )
        assert result.reconstructions == len(calls)

    def test_raising_update_records_no_lap(self, monkeypatch):
        graph = generate_xmark(CONFIG).graph
        workload = MixedUpdateWorkload.prepare(graph, seed=3)
        maintainer = SplitMergeMaintainer(OneIndex.build(graph))
        registry = MetricsRegistry()
        monkeypatch.setattr(runner, "MetricsRegistry", lambda: registry)

        def failing_delete(source, target):
            raise RuntimeError("boom")

        maintainer.delete_edge = failing_delete
        with pytest.raises(RuntimeError, match="boom"):
            run_mixed_updates(
                name="test",
                maintainer=maintainer,
                workload=workload,
                num_pairs=5,
                sample_every=100,
                minimum_size_fn=minimum_1index_size_of,
            )
        # insert, then the failing delete: one completed lap, none for
        # the update that raised
        assert registry.histogram("run.update_seconds").count == 1
        assert registry.counter("run.updates").value == 1

    def test_tails_read_the_whole_run_beyond_the_reservoir(self, monkeypatch):
        """More updates than the histogram's sample reservoir holds, one
        of them slow: ``max`` is that update, not the largest *sampled*
        one, and the percentiles are the histogram's own."""
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(runner, "time", SimpleNamespace(perf_counter=lambda: clock.now))
        registry = MetricsRegistry()
        monkeypatch.setattr(runner, "MetricsRegistry", lambda: registry)

        class ClockedMaintainer:
            """Applies edges to the bare graph; every update takes 1 ms of
            the stubbed clock except the first, which takes 500 ms."""

            def __init__(self, graph):
                self.graph = graph

            def _lap(self) -> UpdateStats:
                clock.now += 0.5 if clock.now == 0.0 else 0.001
                return UpdateStats()

            def insert_edge(self, source, target, kind):
                self.graph.add_edge(source, target, kind)
                return self._lap()

            def delete_edge(self, source, target):
                self.graph.remove_edge(source, target)
                return self._lap()

            def index_size(self):
                return 1

        graph = generate_xmark(CONFIG).graph
        num_pairs = DEFAULT_RESERVOIR  # twice the reservoir's capacity
        result = run_mixed_updates(
            name="test",
            maintainer=ClockedMaintainer(graph),
            workload=MixedUpdateWorkload.prepare(graph, seed=3),
            num_pairs=num_pairs,
            sample_every=10 * num_pairs,
            minimum_size_fn=lambda graph: 1,
        )
        histogram = registry.histogram("run.update_seconds")
        assert result.updates == histogram.count == 2 * num_pairs
        assert not histogram.exact
        assert result.max_update_ms == pytest.approx(500.0)
        assert result.p50_update_ms == histogram.p50 * 1000
        assert result.p95_update_ms == histogram.p95 * 1000

    def test_mean_with_recon(self):
        result = MixedRunResult(name="x", updates=10)
        result.update_seconds = 1.0
        result.reconstruction_seconds = 1.0
        assert result.mean_update_ms == pytest.approx(100.0)
        assert result.mean_update_with_recon_ms == pytest.approx(200.0)

    def test_empty_result_properties(self):
        result = MixedRunResult(name="x")
        assert result.mean_update_ms == 0.0
        assert result.p50_update_ms == 0.0
        assert result.p95_update_ms == 0.0
        assert result.max_update_ms == 0.0
        assert result.mean_update_with_recon_ms == 0.0
        assert result.max_quality == 0.0
        assert result.final_quality == 0.0


class TestSeriesPoint:
    def test_quality(self):
        point = SeriesPoint(update=10, index_size=105, minimum_size=100)
        assert point.quality == pytest.approx(0.05)


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_percent(self):
        assert format_percent(0.0312) == "3.12%"

    def test_format_quality_series(self):
        points = [SeriesPoint(10, 105, 100), SeriesPoint(20, 110, 100)]
        text = format_quality_series("t", {"algo": points})
        assert "5.00%" in text and "10.00%" in text

    def test_format_quality_series_empty(self):
        assert "(no data)" in format_quality_series("t", {})

    def test_format_run_summary(self):
        result = MixedRunResult(name="algo", updates=5)
        result.final_size = 100
        result.final_minimum = 100
        assert "algo" in format_run_summary(result)
