"""GuardedMaintainer: one checked transaction per batch, policies, stats, obs counters."""

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
    POLICIES,
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


def insert_2_4(builder) -> list[tuple[str, tuple]]:
    """The one-operation batch most tests commit: Figure 2's edge 2 -> 4."""
    return [("insert_edge", (builder.oid(2), builder.oid(4)))]


def new_nodes(graph: DataGraph, before: set[int]) -> list[int]:
    """The oids a batch created, ascending (read off the graph)."""
    return sorted(set(graph.nodes()) - before)


class Forgetful:
    """Mixin: a maintainer whose ``insert_edge`` never tells the structure."""

    def insert_edge(self, source, target, kind=EdgeKind.TREE):
        self.graph.add_edge(source, target, kind)
        return UpdateStats()


class ForgetfulOne(Forgetful, SplitMergeMaintainer):
    pass


class ForgetfulAk(Forgetful, AkSplitMergeMaintainer):
    pass


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
            guard.apply_batch(insert_2_4(figure2_builder))
        assert graph_fingerprint(guard.graph) == g_before
        assert index_fingerprint(guard.index) == i_before
        assert guard.stats.faults == 1
        assert guard.stats.rollbacks == 1
        assert guard.stats.commits == 0

    def test_clean_operation_commits(self, figure2_builder):
        guard = guarded_figure2(figure2_builder, GuardConfig(policy="raise"))
        stats = guard.apply_batch(insert_2_4(figure2_builder))
        assert stats.splits == 2 and stats.merges == 2
        assert guard.stats.commits == 1
        assert guard.stats.rollbacks == 0
        assert is_valid_1index(guard.index)


class TestRetryPolicy:
    """Retrying is no policy of the guard's: under ``raise`` the caller
    gets the batch back on clean state and resubmits it."""

    def test_transient_fault_clears_on_retry(self, figure2_builder):
        guard = guarded_figure2(
            figure2_builder,
            GuardConfig(policy="raise"),
            FaultInjector(at_record=1),  # one-shot: the resubmission is clean
        )
        # an unguarded twin shows what the final state must be
        reference = guarded_figure2(figure2_builder)  # same oid mapping
        reference.maintainer.insert_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        with pytest.raises(InjectedFaultError):
            guard.apply_batch(insert_2_4(figure2_builder))
        stats = guard.apply_batch(insert_2_4(figure2_builder))
        assert stats.splits == 2 and stats.merges == 2
        assert (guard.stats.rollbacks, guard.stats.commits) == (1, 1)
        assert graph_fingerprint(guard.graph) == graph_fingerprint(reference.graph)
        assert index_fingerprint(guard.index) == index_fingerprint(reference.index)

    def test_persistent_fault_exhausts_retries(self, figure2_builder):
        guard = guarded_figure2(
            figure2_builder,
            GuardConfig(policy="raise"),
            FaultInjector(at_record=1, rearm=True),  # fires on every attempt
        )
        g_before = graph_fingerprint(guard.graph)
        for _ in range(3):
            with pytest.raises(InjectedFaultError):
                guard.apply_batch(insert_2_4(figure2_builder))
        assert (guard.stats.rollbacks, guard.stats.commits) == (3, 0)
        assert graph_fingerprint(guard.graph) == g_before

    def test_insert_node_returns_oid_through_retry(self, figure2_builder):
        """The resubmitted ``insert_node`` creates the oid a run that never
        failed creates: the rollback returned the one it had taken."""
        guard = guarded_figure2(
            figure2_builder, GuardConfig(policy="raise"), FaultInjector(at_record=1)
        )
        reference = guarded_figure2(figure2_builder)
        batch = [("insert_node", (figure2_builder.oid(1), "B"))]
        before = set(guard.graph.nodes())
        with pytest.raises(InjectedFaultError):
            guard.apply_batch(batch)
        assert isinstance(guard.apply_batch(batch), UpdateStats)
        reference.apply_batch(batch)
        (oid,) = new_nodes(guard.graph, before)
        assert new_nodes(reference.graph, before) == [oid]
        assert guard.graph.label(oid) == "B"


class TestDegradePolicy:
    def test_fault_degrades_to_rebuild_then_applies(self, figure2_builder):
        guard = guarded_figure2(
            figure2_builder,
            GuardConfig(policy="degrade"),
            FaultInjector(at_record=2),  # one-shot: re-apply succeeds
        )
        stats = guard.apply_batch(insert_2_4(figure2_builder))
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
        guard.apply_batch(insert_2_4(figure2_builder))
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
        graph = figure2_builder.build()
        guard = GuardedMaintainer(
            ForgetfulOne(OneIndex.build(graph)),
            GuardConfig(policy="degrade", check_level="valid"),
        )
        guard.apply_batch(insert_2_4(figure2_builder))
        assert guard.stats.check_failures >= 1
        assert guard.stats.raw_fallbacks == 1
        assert guard.graph.has_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert is_valid_1index(guard.index)


@pytest.mark.parametrize("family", ["one", "ak"])
@pytest.mark.parametrize("policy", POLICIES)
def test_no_guarded_commit_is_one_whose_post_check_failed(figure2_builder, policy, family):
    """Every batch is checked before it commits: a forgotten index update
    is rolled back byte for byte under ``raise``, and under ``degrade``
    the batch lands only through a rebuild that then passes the check."""
    graph = figure2_builder.build()
    if family == "one":
        structure = OneIndex.build(graph)
        maintainer = ForgetfulOne(structure)
        fingerprint = index_fingerprint
    else:
        structure = AkIndexFamily.build(graph, 2)
        maintainer = ForgetfulAk(structure)
        fingerprint = family_fingerprint
    guard = GuardedMaintainer(maintainer, GuardConfig(policy=policy))
    before = graph_fingerprint(graph), fingerprint(structure)
    batch = insert_2_4(figure2_builder)
    edge = batch[0][1]
    for _ in range(2):  # a resubmission is checked again, and fails again
        if policy == "raise":
            with pytest.raises(InvariantViolationError):
                guard.apply_batch(batch)
            assert (graph_fingerprint(graph), fingerprint(structure)) == before
            assert guard.stats.commits == 0
        else:
            guard.apply_batch(batch)
            assert graph.has_edge(*edge)
            InvariantGuard(level="minimal").check(graph, structure)
            guard.apply_batch([("delete_edge", edge)])  # unforgotten: back to the start
    failures = 2 if policy == "raise" else 4  # degrade: its incremental re-apply fails too
    assert guard.stats.check_failures == guard.stats.rollbacks == failures
    assert guard.stats.checks == guard.stats.commits + guard.stats.check_failures
    assert guard.stats.raw_fallbacks == (2 if policy == "degrade" else 0)


class TestInvariantChecking:
    def test_corruption_detected_and_rolled_back(self, figure2_builder):
        graph = figure2_builder.build()
        guard = GuardedMaintainer(
            ForgetfulOne(OneIndex.build(graph)),
            GuardConfig(policy="raise", check_level="valid"),
        )
        g_before = graph_fingerprint(guard.graph)
        i_before = index_fingerprint(guard.index)
        with pytest.raises(InvariantViolationError):
            guard.apply_batch(insert_2_4(figure2_builder))
        assert guard.stats.check_failures == 1
        assert graph_fingerprint(guard.graph) == g_before
        assert index_fingerprint(guard.index) == i_before

    def test_every_batch_is_checked(self, figure2_builder):
        guard = guarded_figure2(figure2_builder, GuardConfig(policy="raise"))
        edge = (figure2_builder.oid(2), figure2_builder.oid(4))
        for _ in range(3):
            guard.apply_batch([("insert_edge", (*edge, EdgeKind.IDREF))])
            guard.apply_batch([("delete_edge", edge)])
        guard.apply_batch([])  # no transaction: nothing to check
        assert guard.stats.commits == guard.stats.checks == 6

    def test_an_empty_check_level_checks_nothing(self, figure2_builder):
        """Recovery's replay guard: the one post-check follows the replay."""
        guard = guarded_figure2(figure2_builder, GuardConfig(policy="raise", check_level=""))
        guard.apply_batch(insert_2_4(figure2_builder))
        assert guard.stats.commits == 1 and guard.stats.checks == 0
        guard.invariants.check(guard.graph, guard.structure)
        assert guard.invariants.checks_full == guard.invariants.checks_local == 0

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
        with pytest.raises(ValueError):
            GuardConfig(policy="retry")

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
            guard.apply_batch(insert_2_4(figure2_builder))
        assert family_fingerprint(family) == f_before
        assert graph_fingerprint(graph) == g_before
        # the one-shot injector is spent: the same update now lands
        guard.apply_batch(insert_2_4(figure2_builder))
        assert guard.stats.commits == 1
        family.check_invariants()
        assert family.is_minimum()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_a_rolled_back_label_leaves_no_stale_level0_token(
        self, figure2_builder, policy
    ):
        """A batch opens the level-0 class of a new label and rolls back
        (under ``degrade``: then lands through the rebuild); the next new
        label is issued a token of its own, and the first label must not
        be filed under it."""
        graph = figure2_builder.build()
        family = AkIndexFamily.build(graph, 2)
        guard = GuardedMaintainer(
            AkSplitMergeMaintainer(family),
            GuardConfig(policy=policy, check_level=""),
            FaultInjector(at_record=3),
        )
        root = graph.root
        f_before = family_fingerprint(family)
        batch = [("insert_node", (root, "foo")), ("insert_node", (root, "x"))]
        if policy == "raise":
            with pytest.raises(InjectedFaultError):
                guard.apply_batch(batch)
            assert family_fingerprint(family) == f_before
        else:
            guard.apply_batch(batch)
            assert guard.stats.degradations == 1
        assert guard.stats.rollbacks == 1
        before = set(graph.nodes())
        guard.apply_batch([("insert_node", (root, "bar"))])
        guard.apply_batch([("insert_node", (root, "foo"))])
        bar, foo = new_nodes(graph, before)
        assert family.class_at(0, bar) != family.class_at(0, foo)
        family.check_invariants()
        assert family.is_minimum()


class TestObsIntegration:
    def test_counters_mirror_stats(self, figure2_builder):
        with observed(NullSink()) as obs:
            guard = guarded_figure2(
                figure2_builder,
                GuardConfig(policy="degrade"),
                FaultInjector(at_record=1),
            )
            guard.apply_batch(insert_2_4(figure2_builder))
            counters = {
                name: obs.metrics.counter(f"resilience.{name}").value
                for name in ("txns", "faults", "rollbacks", "degradations", "checks")
            }
        assert counters["txns"] == guard.stats.commits + guard.stats.rollbacks == 2
        assert counters["faults"] == guard.stats.faults == 1
        assert counters["rollbacks"] == guard.stats.rollbacks == 1
        assert counters["degradations"] == guard.stats.degradations == 1
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
            GuardConfig(policy="raise"),
            FaultInjector(at_record=1),
        )
        host = figure2_builder.oid(1)
        batch = [("add_subgraph", (self._subgraph(), 500, [(host, 500)]))]
        before = set(guard.graph.nodes())
        with pytest.raises(InjectedFaultError):
            guard.apply_batch(batch)
        assert isinstance(guard.apply_batch(batch), UpdateStats)  # resubmitted
        new_root, new_leaf = new_nodes(guard.graph, before)
        assert guard.graph.label(new_root) == "S"
        assert guard.graph.has_edge(host, new_root)
        assert guard.graph.has_edge(new_root, new_leaf)
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
            guard.apply_batch([("delete_subgraph", (figure2_builder.oid(1),))])
        assert graph_fingerprint(guard.graph) == g_before
        assert index_fingerprint(guard.index) == i_before

    def test_delete_node_commits(self, figure2_builder):
        guard = guarded_figure2(figure2_builder)
        leaf = figure2_builder.oid(6)
        guard.apply_batch([("delete_node", (leaf,))])
        assert not guard.graph.has_node(leaf)
        assert is_valid_1index(guard.index)
