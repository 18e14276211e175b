"""End-to-end observability: instrumented maintenance and traced runs.

The acceptance check for the layer: counters and trace events must agree
with the numbers the algorithms themselves report (``UpdateStats``,
``MixedRunResult``), with no double counting through composite
operations.
"""

from __future__ import annotations

from repro.experiments.runner import run_mixed_updates
from repro.graph.builder import GraphBuilder
from repro.index.oneindex import OneIndex
from repro.index.stability import minimum_1index_size
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.obs import InMemorySink, observed
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import XMarkConfig, generate_xmark

CONFIG = XMarkConfig(
    num_items=30, num_persons=40, num_open_auctions=25,
    num_closed_auctions=15, num_categories=8,
)


class TestMaintainerInstrumentation:
    def test_figure2_insert_counters_match_stats(self, figure2_builder):
        graph = figure2_builder.build()
        index = OneIndex.build(graph)
        maintainer = SplitMergeMaintainer(index)
        sink = InMemorySink()
        with observed(sink) as obs:
            stats = maintainer.insert_edge(
                figure2_builder.oid(2), figure2_builder.oid(4)
            )
        # Figure 2: two splits then two merges — counters must agree.
        assert obs.metrics.counter("one.splits").value == stats.splits == 2
        assert obs.metrics.counter("one.merges").value == stats.merges == 2
        (repair,) = sink.spans("one.repair")
        (split_phase,) = sink.spans("one.split_phase")
        (merge_phase,) = sink.spans("one.merge_phase")
        assert split_phase["parent"] == repair["id"]
        assert merge_phase["parent"] == repair["id"]
        assert split_phase["attrs"]["splits"] == 2
        assert merge_phase["attrs"]["merges"] == 2

    def test_trivial_update_traces_no_repair(self):
        # iedge A->B exists and b1 already has an A-parent: trivial.
        builder = (
            GraphBuilder()
            .node("a1", "A").node("a2", "A")
            .node("b1", "B").node("b2", "B")
            .edge("root", "a1").edge("root", "a2")
            .edge("a1", "b1").edge("a2", "b2")
        )
        graph = builder.build()
        index = OneIndex.build(graph)
        maintainer = SplitMergeMaintainer(index)
        with observed(InMemorySink()) as obs:
            stats = maintainer.insert_edge(builder.oid("a2"), builder.oid("b1"))
        assert stats.trivial
        assert obs.metrics.counter("one.trivial").value == 1
        assert obs.sinks[0].spans("one.repair") == []

    def test_disabled_observability_changes_nothing(self, figure2_builder):
        # Same update with and without an observer: identical results.
        results = []
        for enable in (False, True):
            graph = figure2_builder.build()
            index = OneIndex.build(graph)
            maintainer = SplitMergeMaintainer(index)
            if enable:
                with observed(InMemorySink()):
                    stats = maintainer.insert_edge(
                        figure2_builder.oid(2), figure2_builder.oid(4)
                    )
            else:
                stats = maintainer.insert_edge(
                    figure2_builder.oid(2), figure2_builder.oid(4)
                )
            results.append((stats.splits, stats.merges, index.num_inodes))
        assert results[0] == results[1]


class TestTracedRun:
    def _run(self, sink):
        graph = generate_xmark(CONFIG).graph
        workload = MixedUpdateWorkload.prepare(graph, seed=3)
        index = OneIndex.build(graph)
        with observed(sink):
            return run_mixed_updates(
                name="traced",
                maintainer=SplitMergeMaintainer(index),
                workload=workload,
                num_pairs=10,
                sample_every=5,
                minimum_size_fn=minimum_1index_size,
            )

    def test_trace_events_match_result(self):
        sink = InMemorySink()
        result = self._run(sink)
        events = sink.events("run.update")
        assert len(events) == result.updates == 20
        assert sum(e["attrs"]["splits"] for e in events) == result.total_splits
        assert sum(e["attrs"]["merges"] for e in events) == result.total_merges

    def test_metrics_snapshot_matches_result(self):
        sink = InMemorySink()
        result = self._run(sink)
        (snapshot,) = sink.metrics_records("traced")
        counters = snapshot["counters"]
        assert counters["run.updates"] == result.updates
        assert counters["run.splits"] == result.total_splits
        assert counters["run.merges"] == result.total_merges
        assert counters["run.trivial"] == result.trivial_updates
        assert snapshot["gauges"]["run.peak_inodes"]["max"] == result.peak_inodes
        assert snapshot["histograms"]["run.update_seconds"]["count"] == result.updates

    def test_run_span_wraps_updates(self):
        sink = InMemorySink()
        result = self._run(sink)
        (run_span,) = sink.spans("run")
        assert run_span["attrs"]["updates"] == result.updates
        assert run_span["attrs"]["splits"] == result.total_splits
        # update events nest (transitively) under the run span
        for event in sink.events("run.update"):
            assert event["parent"] == run_span["id"]

    def test_untraced_run_still_fills_result(self):
        # No observer installed: the per-run registry still feeds the
        # result fields (the registry is the source of truth).
        graph = generate_xmark(CONFIG).graph
        workload = MixedUpdateWorkload.prepare(graph, seed=3)
        index = OneIndex.build(graph)
        result = run_mixed_updates(
            name="plain",
            maintainer=SplitMergeMaintainer(index),
            workload=workload,
            num_pairs=10,
            sample_every=5,
            minimum_size_fn=minimum_1index_size,
        )
        assert result.updates == 20
        assert result.metrics is not None
        assert result.metrics.counter("run.updates").value == 20
        assert result.p95_update_ms >= result.p50_update_ms >= 0.0
        assert result.max_update_ms >= result.p95_update_ms
