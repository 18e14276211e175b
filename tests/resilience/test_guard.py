"""GuardedMaintainer: policies, cadence, stats, obs counters, CLI wiring."""

from __future__ import annotations

import pytest

from repro.exceptions import InjectedFaultError, InvariantViolationError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.index.akindex import AkIndexFamily
from repro.index.oneindex import OneIndex
from repro.index.stability import is_minimal_1index, is_valid_1index
from repro.maintenance.ak_split_merge import AkSplitMergeMaintainer
from repro.maintenance.base import UpdateStats
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.obs import NullSink, observed
from repro.resilience import (
    FaultInjector,
    GuardConfig,
    GuardedMaintainer,
    InvariantGuard,
)
from tests.resilience.conftest import (
    family_fingerprint,
    graph_fingerprint,
    index_fingerprint,
)


def guarded_figure2(builder, config=None, injector=None):
    graph = builder.build()
    index = OneIndex.build(graph)
    return GuardedMaintainer(SplitMergeMaintainer(index), config, injector)


class TestRaisePolicy:
    def test_fault_rolls_back_and_reraises(self, figure2_builder):
        guard = guarded_figure2(
            figure2_builder,
            GuardConfig(policy="raise"),
            FaultInjector(at_record=2),
        )
        g_before = graph_fingerprint(guard.graph)
        i_before = index_fingerprint(guard.index)
        with pytest.raises(InjectedFaultError):
            guard.insert_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert graph_fingerprint(guard.graph) == g_before
        assert index_fingerprint(guard.index) == i_before
        assert guard.stats.faults == 1
        assert guard.stats.rollbacks == 1
        assert guard.stats.commits == 0

    def test_clean_operation_commits(self, figure2_builder):
        guard = guarded_figure2(figure2_builder, GuardConfig(policy="raise"))
        stats = guard.insert_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert stats.splits == 2 and stats.merges == 2
        assert guard.stats.commits == 1
        assert guard.stats.rollbacks == 0
        assert is_valid_1index(guard.index)


class TestRetryPolicy:
    def test_transient_fault_clears_on_retry(self, figure2_builder):
        guard = guarded_figure2(
            figure2_builder,
            GuardConfig(policy="retry", max_retries=2),
            FaultInjector(at_record=1),  # one-shot: second attempt is clean
        )
        # an unguarded twin shows what the final state must be
        twin_builder_graph = figure2_builder  # same oid mapping
        reference = guarded_figure2(twin_builder_graph)
        reference.maintainer.insert_edge(
            figure2_builder.oid(2), figure2_builder.oid(4)
        )
        stats = guard.insert_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert stats.splits == 2 and stats.merges == 2
        assert guard.stats.retries == 1
        assert guard.stats.commits == 1
        assert graph_fingerprint(guard.graph) == graph_fingerprint(reference.graph)
        assert index_fingerprint(guard.index) == index_fingerprint(reference.index)

    def test_persistent_fault_exhausts_retries(self, figure2_builder):
        guard = guarded_figure2(
            figure2_builder,
            GuardConfig(policy="retry", max_retries=2),
            FaultInjector(at_record=1, rearm=True),  # fires on every attempt
        )
        g_before = graph_fingerprint(guard.graph)
        with pytest.raises(InjectedFaultError):
            guard.insert_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert guard.stats.retries == 2
        assert guard.stats.rollbacks == 3  # initial attempt + 2 retries
        assert graph_fingerprint(guard.graph) == g_before

    def test_insert_node_returns_oid_through_retry(self, figure2_builder):
        guard = guarded_figure2(
            figure2_builder,
            GuardConfig(policy="retry", max_retries=1),
            FaultInjector(at_record=1),
        )
        oid, stats = guard.insert_node(figure2_builder.oid(1), "B")
        assert guard.graph.has_node(oid)
        assert isinstance(stats, UpdateStats)
        assert guard.stats.retries == 1


class TestDegradePolicy:
    def test_fault_degrades_to_rebuild_then_applies(self, figure2_builder):
        guard = guarded_figure2(
            figure2_builder,
            GuardConfig(policy="degrade"),
            FaultInjector(at_record=2),  # one-shot: re-apply succeeds
        )
        stats = guard.insert_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert isinstance(stats, UpdateStats)
        assert guard.stats.degradations == 1
        assert guard.stats.raw_fallbacks == 0
        assert guard.graph.has_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert is_valid_1index(guard.index)
        assert is_minimal_1index(guard.index)

    def test_persistent_fault_falls_back_to_raw(self, figure2_builder):
        guard = guarded_figure2(
            figure2_builder,
            GuardConfig(policy="degrade"),
            FaultInjector(at_record=1, rearm=True),  # every attempt faults
        )
        guard.insert_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert guard.stats.degradations == 1
        assert guard.stats.raw_fallbacks == 1
        # the raw path applies the edge journal-free and rebuilds: valid end
        assert guard.graph.has_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert is_valid_1index(guard.index)
        assert is_minimal_1index(guard.index)

    def test_buggy_maintainer_contained_by_degrade(self, figure2_builder):
        # a maintainer that corrupts the index (graph edge added, index
        # never told) is caught by the post-check and contained: the
        # degrade path lands the update at reconstruction cost
        class BuggyMaintainer(SplitMergeMaintainer):
            def insert_edge(self, source, target, kind=EdgeKind.TREE):
                self.graph.add_edge(source, target, kind)
                return UpdateStats()

        graph = figure2_builder.build()
        guard = GuardedMaintainer(
            BuggyMaintainer(OneIndex.build(graph)),
            GuardConfig(policy="degrade", check_level="valid", check_every=1),
        )
        guard.insert_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert guard.stats.check_failures >= 1
        assert guard.stats.raw_fallbacks == 1
        assert guard.graph.has_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert is_valid_1index(guard.index)


class TestInvariantChecking:
    def test_corruption_detected_and_rolled_back(self, figure2_builder):
        class BuggyMaintainer(SplitMergeMaintainer):
            def insert_edge(self, source, target, kind=EdgeKind.TREE):
                self.graph.add_edge(source, target, kind)
                return UpdateStats()

        graph = figure2_builder.build()
        guard = GuardedMaintainer(
            BuggyMaintainer(OneIndex.build(graph)),
            GuardConfig(policy="raise", check_level="valid", check_every=1),
        )
        g_before = graph_fingerprint(guard.graph)
        i_before = index_fingerprint(guard.index)
        with pytest.raises(InvariantViolationError):
            guard.insert_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert guard.stats.check_failures == 1
        assert graph_fingerprint(guard.graph) == g_before
        assert index_fingerprint(guard.index) == i_before

    def test_cadence_every_n(self, figure2_builder):
        guard = guarded_figure2(
            figure2_builder, GuardConfig(policy="raise", check_every=3)
        )
        edge = (figure2_builder.oid(2), figure2_builder.oid(4))
        for _ in range(3):
            guard.insert_edge(*edge, EdgeKind.IDREF)
            guard.delete_edge(*edge)
        assert guard.stats.commits == 6
        assert guard.stats.checks == 2

    def test_cadence_zero_never_checks(self, figure2_builder):
        guard = guarded_figure2(
            figure2_builder, GuardConfig(policy="raise", check_every=0)
        )
        guard.insert_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert guard.stats.checks == 0

    def test_minimal_level_flags_valid_but_nonminimal(self, diamond_dag):
        # splitting {x, y} (bisimilar siblings) keeps the index valid but
        # leaves two mergeable blocks — only the 'minimal' level objects
        index = OneIndex.build(diamond_dag)
        guard = InvariantGuard(level="minimal")
        guard.check(diamond_dag, index)  # minimum index passes
        inode = next(i for i in index.inodes() if len(index.extent(i)) > 1)
        dnode = next(iter(index.extent(inode)))
        fresh = index.new_inode(index.label_of(inode))
        index.move_dnode(dnode, fresh)
        assert is_valid_1index(index)
        InvariantGuard(level="valid").check(diamond_dag, index)
        with pytest.raises(InvariantViolationError):
            guard.check(diamond_dag, index)

    def test_family_checks(self, figure2_graph):
        family = AkIndexFamily.build(figure2_graph, 2)
        InvariantGuard(level="minimal").check(figure2_graph, family)

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            InvariantGuard(level="paranoid")


class TestGuardConfig:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            GuardConfig(policy="shrug")

    def test_defaults(self):
        config = GuardConfig()
        assert config.policy == "raise"
        assert config.check_level == "minimal"


class TestAkGuard:
    def test_family_detected_and_rolled_back(self, figure2_builder):
        graph = figure2_builder.build()
        family = AkIndexFamily.build(graph, 2)
        guard = GuardedMaintainer(
            AkSplitMergeMaintainer(family),
            GuardConfig(policy="raise", check_level="minimal"),
            FaultInjector(at_record=1),
        )
        assert guard.family is family and guard.index is None
        f_before = family_fingerprint(family)
        g_before = graph_fingerprint(graph)
        with pytest.raises(InjectedFaultError):
            guard.insert_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert family_fingerprint(family) == f_before
        assert graph_fingerprint(graph) == g_before
        # the one-shot injector is spent: the same update now lands
        guard.insert_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert guard.stats.commits == 1
        family.check_invariants()
        assert family.is_minimum()

    @pytest.mark.parametrize("policy", ["raise", "retry"])
    def test_a_rolled_back_label_leaves_no_stale_level0_token(
        self, figure2_builder, policy
    ):
        """A batch opens the level-0 class of a new label and rolls back
        (under ``retry``: every attempt does); the next new label is issued
        the same token, and the first label must not be filed under it."""
        graph = figure2_builder.build()
        family = AkIndexFamily.build(graph, 2)
        guard = GuardedMaintainer(
            AkSplitMergeMaintainer(family),
            GuardConfig(policy=policy, check_every=0),
            FaultInjector(at_record=3, rearm=policy == "retry"),
        )
        root = graph.root
        f_before = family_fingerprint(family)
        with pytest.raises(InjectedFaultError):
            guard.apply_batch(
                [("insert_node", (root, "foo")), ("insert_node", (root, "x"))]
            )
        assert guard.stats.rollbacks == (3 if policy == "retry" else 1)
        assert family_fingerprint(family) == f_before
        guard.fault_injector = None
        bar, _ = guard.insert_node(root, "bar")
        foo, _ = guard.insert_node(root, "foo")
        assert family.class_at(0, bar) != family.class_at(0, foo)
        family.check_invariants()
        assert family.is_minimum()


class TestObsIntegration:
    def test_counters_mirror_stats(self, figure2_builder):
        with observed(NullSink()) as obs:
            guard = guarded_figure2(
                figure2_builder,
                GuardConfig(policy="retry", max_retries=2, check_every=1),
                FaultInjector(at_record=1),
            )
            guard.insert_edge(figure2_builder.oid(2), figure2_builder.oid(4))
            counters = {
                name: obs.metrics.counter(f"resilience.{name}").value
                for name in ("txns", "faults", "rollbacks", "retries", "checks")
            }
        assert counters["txns"] == guard.stats.commits + guard.stats.rollbacks == 2
        assert counters["faults"] == guard.stats.faults == 1
        assert counters["rollbacks"] == guard.stats.rollbacks == 1
        assert counters["retries"] == guard.stats.retries == 1
        assert counters["checks"] == guard.stats.checks == 1


class TestSubgraphMethods:
    def _subgraph(self):
        sub = DataGraph()
        a = sub.add_node("S", oid=500)
        b = sub.add_node("T", oid=501)
        sub.add_edge(a, b)
        return sub

    def test_add_subgraph_through_guard(self, figure2_builder):
        guard = guarded_figure2(
            figure2_builder,
            GuardConfig(policy="retry", max_retries=1),
            FaultInjector(at_record=1),
        )
        host = figure2_builder.oid(1)
        mapping, stats = guard.add_subgraph(self._subgraph(), 500, [(host, 500)])
        assert guard.stats.retries == 1
        assert isinstance(stats, UpdateStats)
        new_root = mapping[500]
        assert guard.graph.has_edge(host, new_root)
        assert is_valid_1index(guard.index)

    def test_delete_subgraph_rolls_back(self, figure2_builder):
        guard = guarded_figure2(
            figure2_builder,
            GuardConfig(policy="raise"),
            FaultInjector(at_record=3),
        )
        g_before = graph_fingerprint(guard.graph)
        i_before = index_fingerprint(guard.index)
        with pytest.raises(InjectedFaultError):
            guard.delete_subgraph(figure2_builder.oid(1))
        assert graph_fingerprint(guard.graph) == g_before
        assert index_fingerprint(guard.index) == i_before

    def test_delete_node_commits(self, figure2_builder):
        guard = guarded_figure2(figure2_builder)
        leaf = figure2_builder.oid(6)
        guard.delete_node(leaf)
        assert not guard.graph.has_node(leaf)
        assert is_valid_1index(guard.index)


class TestCliWiring:
    def test_guard_flags_require_guard(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["--guard-policy", "degrade", "fig9"])
        with pytest.raises(SystemExit):
            main(["--check-every", "5", "fig9"])

    def test_scale_carries_guard_config(self):
        from dataclasses import replace

        from repro.experiments.config import scale_by_name

        scale = replace(
            scale_by_name("smoke"),
            guard=GuardConfig(policy="degrade", check_every=10),
        )
        assert scale.guard.policy == "degrade"

    def test_guarded_dataset_comparison_runs(self):
        # the fig9-11 engine accepts a guarded scale end to end; overhead
        # lands in the same stopwatch as the unguarded runs
        from dataclasses import replace

        from repro.experiments.config import scale_by_name
        from repro.experiments.mixed_1index import (
            run_dataset_comparison,
            xmark_factory,
        )

        scale = replace(
            scale_by_name("smoke"),
            pairs_1index=5,
            guard=GuardConfig(policy="raise", check_every=5),
        )
        comparison = run_dataset_comparison(
            "xmark-guarded", xmark_factory(scale, 1.0), scale
        )
        for result in comparison.results.values():
            assert result.updates == 10
