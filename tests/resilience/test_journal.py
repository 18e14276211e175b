"""Unit tests: the mutation journal restores exact pre-transaction state.

Byte-identity throughout: rollback must leave the graph (and index)
serialising to exactly the same sorted-key JSON as before the
transaction — not merely "a valid state".
"""

from __future__ import annotations

import pytest

from repro.exceptions import RollbackError
from repro.graph.builder import GraphBuilder
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.index.akindex import AkIndexFamily
from repro.index.oneindex import OneIndex
from repro.maintenance.ak_split_merge import AkSplitMergeMaintainer
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.resilience import MutationJournal, Transaction
from tests.resilience.conftest import (
    family_fingerprint,
    graph_fingerprint,
    index_fingerprint,
)


class TestGraphRollback:
    """Every DataGraph mutator journals enough to undo itself exactly."""

    def test_add_node_rolls_back(self, tiny_tree):
        before = graph_fingerprint(tiny_tree)
        txn = Transaction(tiny_tree).begin()
        tiny_tree.add_node("Z", value="payload")
        txn.rollback()
        assert graph_fingerprint(tiny_tree) == before
        tiny_tree.check_invariants()

    def test_add_root_rolls_back(self):
        graph = DataGraph()
        before = graph_fingerprint(graph)
        txn = Transaction(graph).begin()
        graph.add_root()
        txn.rollback()
        assert graph_fingerprint(graph) == before
        assert not graph.has_root

    def test_add_and_remove_edge_roll_back(self, figure2_builder):
        graph = figure2_builder.build()
        before = graph_fingerprint(graph)
        with pytest.raises(ValueError):
            with Transaction(graph):
                graph.add_edge(
                    figure2_builder.oid(2), figure2_builder.oid(4), EdgeKind.IDREF
                )
                graph.remove_edge(figure2_builder.oid(1), figure2_builder.oid(3))
                raise ValueError("abort")
        assert graph_fingerprint(graph) == before
        graph.check_invariants()

    def test_remove_node_restores_incident_edges(self, figure2_builder):
        graph = figure2_builder.build()
        doomed = figure2_builder.oid(5)  # has two parents and one child
        before = graph_fingerprint(graph)
        txn = Transaction(graph).begin()
        for p in list(graph.iter_pred(doomed)):
            graph.remove_edge(p, doomed)
        for c in list(graph.iter_succ(doomed)):
            graph.remove_edge(doomed, c)
        graph.remove_node(doomed)
        txn.rollback()
        assert graph_fingerprint(graph) == before
        graph.check_invariants()

    def test_value_and_label_mutations_roll_back(self, tiny_tree):
        oid = next(o for o in tiny_tree.nodes() if tiny_tree.label(o) == "B")
        before = graph_fingerprint(tiny_tree)
        txn = Transaction(tiny_tree).begin()
        tiny_tree.set_value(oid, 42)
        tiny_tree.relabel_node(oid, "B2")
        txn.rollback()
        assert graph_fingerprint(tiny_tree) == before

    def test_commit_keeps_mutations(self, tiny_tree):
        before = graph_fingerprint(tiny_tree)
        with Transaction(tiny_tree):
            oid = tiny_tree.add_node("Z")
            tiny_tree.add_edge(tiny_tree.root, oid)
        assert graph_fingerprint(tiny_tree) != before
        assert tiny_tree.has_node(oid)
        # journal detached: later mutations outside any transaction are fine
        assert tiny_tree._journal is None
        tiny_tree.check_invariants()


class TestIndexRollback:
    """Split/merge index surgery rolls back through the shared journal."""

    def test_nontrivial_insert_rolls_back(self, figure2_builder):
        graph = figure2_builder.build()
        index = OneIndex.build(graph)
        maintainer = SplitMergeMaintainer(index)
        g_before = graph_fingerprint(graph)
        i_before = index_fingerprint(index)
        txn = Transaction(graph, index).begin()
        # the paper's running example: 2 splits + 2 merges
        stats = maintainer.insert_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert stats.splits == 2 and stats.merges == 2
        assert len(txn.journal) > 0
        txn.rollback()
        assert graph_fingerprint(graph) == g_before
        assert index_fingerprint(index) == i_before
        index.check_invariants()

    def test_nontrivial_delete_rolls_back(self, figure2_builder):
        graph = figure2_builder.build()
        index = OneIndex.build(graph)
        maintainer = SplitMergeMaintainer(index)
        g_before = graph_fingerprint(graph)
        i_before = index_fingerprint(index)
        txn = Transaction(graph, index).begin()
        maintainer.delete_edge(figure2_builder.oid(2), figure2_builder.oid(5))
        txn.rollback()
        assert graph_fingerprint(graph) == g_before
        assert index_fingerprint(index) == i_before
        index.check_invariants()

    def test_node_insertion_rolls_back(self, figure2_builder):
        graph = figure2_builder.build()
        index = OneIndex.build(graph)
        maintainer = SplitMergeMaintainer(index)
        g_before = graph_fingerprint(graph)
        i_before = index_fingerprint(index)
        txn = Transaction(graph, index).begin()
        oid, _ = maintainer.insert_node(figure2_builder.oid(1), "B")
        assert graph.has_node(oid)
        txn.rollback()
        assert graph_fingerprint(graph) == g_before
        assert index_fingerprint(index) == i_before
        # next_id restored too: a fresh inode reuses the rolled-back id space
        assert index_fingerprint(index) == i_before

    def test_commit_then_reverse_update_restores_size(self, figure2_builder):
        graph = figure2_builder.build()
        index = OneIndex.build(graph)
        maintainer = SplitMergeMaintainer(index)
        size = index.num_inodes
        with Transaction(graph, index):
            maintainer.insert_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        with Transaction(graph, index):
            maintainer.delete_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert index.num_inodes == size
        index.check_invariants()


class TestFamilyRollback:
    """A(k) families roll back through the journal they share with the graph."""

    def test_family_snapshot_restored(self, figure2_builder):
        graph = figure2_builder.build()
        family = AkIndexFamily.build(graph, 2)
        maintainer = AkSplitMergeMaintainer(family)
        g_before = graph_fingerprint(graph)
        f_before = family_fingerprint(family)
        txn = Transaction(graph, family).begin()
        maintainer.insert_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert [op for target, op, _ in txn.journal.records if target is family] == [
            "member_moved"
        ] * 3  # 4 joins 5 at levels 1 and 2, 7 joins 8 at level 2
        txn.rollback()
        assert graph_fingerprint(graph) == g_before
        assert family_fingerprint(family) == f_before
        family.check_invariants()
        assert family.is_minimum()

    def test_every_family_primitive_rolls_back(self):
        """One transaction through all four record kinds, tokens included.

        B-dnodes 3 (under A) and 5 (under A and the D below E): giving 3
        the D below the root as a second parent moves it into 5's class
        at level 1 — closing its own — while its level-2 class keeps its
        token and is re-parented; taking the edge away opens the classes
        again, under fresh tokens.
        """
        builder = (
            GraphBuilder()
            .node(1, "A").node(2, "D").node(9, "E").node(10, "D").node(3, "B").node(5, "B")
            .edge("root", 1).edge("root", 2).edge("root", 9).edge(9, 10)
            .edge(1, 3).edge(1, 5).edge(10, 5)
        )
        graph = builder.build()
        family = AkIndexFamily.build(graph, 2)
        maintainer = AkSplitMergeMaintainer(family)
        before = graph_fingerprint(graph), family_fingerprint(family)
        labels_before = dict(family.label_tokens)
        txn = Transaction(graph, family).begin()
        maintainer.insert_edge(builder.oid(2), builder.oid(3), EdgeKind.IDREF)
        maintainer.delete_edge(builder.oid(2), builder.oid(3))
        maintainer.insert_node(builder.oid(3), "new-label")
        family.check_invariants()
        assert family.is_minimum()
        assert {op for target, op, _ in txn.journal.records if target is family} == {
            "member_moved", "class_opened", "class_closed", "class_reparented"
        }
        assert family_fingerprint(family) != before[1]  # (the fresh tokens)
        txn.rollback()
        assert (graph_fingerprint(graph), family_fingerprint(family)) == before
        assert family.label_tokens == labels_before
        assert family._journal is None
        family.check_invariants()

    def test_family_commit_keeps_update(self, figure2_builder):
        graph = figure2_builder.build()
        family = AkIndexFamily.build(graph, 2)
        maintainer = AkSplitMergeMaintainer(family)
        f_before = family_fingerprint(family)
        with Transaction(graph, family):
            maintainer.insert_edge(figure2_builder.oid(2), figure2_builder.oid(4))
        assert family_fingerprint(family) != f_before
        family.check_invariants()


class TestTransactionProtocol:
    def test_nested_transactions_rejected(self, tiny_tree):
        txn = Transaction(tiny_tree).begin()
        with pytest.raises(RollbackError):
            Transaction(tiny_tree).begin()
        txn.rollback()

    def test_double_begin_rejected(self, tiny_tree):
        txn = Transaction(tiny_tree).begin()
        with pytest.raises(RollbackError):
            txn.begin()
        txn.commit()

    def test_commit_without_begin_rejected(self, tiny_tree):
        with pytest.raises(RollbackError):
            Transaction(tiny_tree).commit()

    def test_context_manager_commits_on_success(self, tiny_tree):
        with Transaction(tiny_tree):
            tiny_tree.add_node("Z")
        assert tiny_tree._journal is None

    def test_failed_undo_raises_rollback_error(self, tiny_tree):
        class Corrupt:
            def _undo_journal(self, op, payload):
                raise RuntimeError("undo exploded")

        txn = Transaction(tiny_tree).begin()
        txn.journal.record(Corrupt(), "bogus_op", ())
        with pytest.raises(RollbackError):
            txn.rollback()

    def test_on_record_sees_every_mutation(self, tiny_tree):
        observed: list[tuple[str, int]] = []
        journal = MutationJournal(on_record=lambda op, n: observed.append((op, n)))
        tiny_tree._journal = journal
        try:
            oid = tiny_tree.add_node("Z")
            tiny_tree.add_edge(tiny_tree.root, oid)
        finally:
            tiny_tree._journal = None
        assert [op for op, _ in observed] == ["node_added", "edge_added"]
        assert [n for _, n in observed] == [1, 2]
        journal.rollback()
        assert not tiny_tree.has_node(oid)

    def test_journaling_work_is_one_record_per_mutator_call(self):
        """The guard-overhead gate, as counts instead of a stopwatch.

        (A stopwatch gate would bound the journaled / unguarded time
        ratio of a mixed workload; what that ratio measures is this.)  Outside a transaction the hooks find no
        journal, so an unguarded run leaves none behind; inside one,
        every mutator call — each bumps its structure's generation
        exactly once — appends exactly one record, so journaling adds
        O(1) per primitive the maintenance already performed.
        """
        from repro.resilience import GuardConfig, GuardedMaintainer
        from repro.workload.updates import MixedUpdateWorkload
        from repro.workload.xmark import generate_xmark
        from tests.resilience.conftest import CHAOS_XMARK, edge_call

        class CountedFamily(AkIndexFamily):
            """A family that counts its mutator calls (it keeps no generation)."""

            generation = 0

        def counted(primitive):
            def call(self, *args):
                self.generation += 1
                return primitive(self, *args)

            return call

        for name in ("move", "open_class", "close_class", "reparent"):
            setattr(CountedFamily, name, counted(getattr(AkIndexFamily, name)))

        for kind in ("one", "ak"):
            records: list[int] = []
            for guarded in (False, True):
                graph = generate_xmark(CHAOS_XMARK).graph
                workload = MixedUpdateWorkload.prepare(graph, seed=11)
                if kind == "one":
                    index = OneIndex.build(graph)
                    maintainer = SplitMergeMaintainer(index)
                else:
                    index = CountedFamily.build(graph, 2)
                    maintainer = AkSplitMergeMaintainer(index)
                if guarded:
                    guard = GuardedMaintainer(
                        maintainer, GuardConfig(policy="raise", check_level="")
                    )
                    guard.fault_injector = lambda op, count: records.append(count)
                before = graph.generation + index.generation
                for step in workload.steps(40, validate=True):
                    method, args = edge_call(step)
                    if guarded:
                        guard.apply_batch([(method, args)])
                    else:
                        getattr(maintainer, method)(*args)
                    assert graph._journal is None and index._journal is None
                mutator_calls = graph.generation + index.generation - before
                assert len(records) == (mutator_calls if guarded else 0)
            assert len(records) > 80, kind  # more than one record per update
